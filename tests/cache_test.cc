// Unit tests for the bounded peer storage (src/cache/): byte accounting,
// per-policy victim choice, admission control, and config plumbing.
#include "cache/content_store.h"

#include <gtest/gtest.h>

#include "common/config.h"

namespace flower {
namespace {

TEST(CachePolicyTest, ParseRoundTrips) {
  for (CachePolicy p : {CachePolicy::kUnbounded, CachePolicy::kLru,
                        CachePolicy::kLfu, CachePolicy::kGdsf}) {
    Result<CachePolicy> parsed = ParseCachePolicy(CachePolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), p);
  }
}

TEST(CachePolicyTest, ParseRejectsUnknown) {
  Result<CachePolicy> r = ParseCachePolicy("arc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CachePolicyTest, ConfigKeysApply) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_policy", "gdsf").ok());
  ASSERT_TRUE(c.Apply("cache_capacity_bytes", "65536").ok());
  EXPECT_EQ(c.cache_policy, "gdsf");
  EXPECT_EQ(c.cache_capacity_bytes, 65536u);
  ContentStore store = ContentStore::FromConfig(c);
  EXPECT_EQ(store.policy(), CachePolicy::kGdsf);
  EXPECT_EQ(store.capacity_bytes(), 65536u);
}

TEST(CachePolicyTest, ConfigRejectsBadValues) {
  SimConfig c;
  EXPECT_FALSE(c.Apply("cache_policy", "bogus").ok());
  EXPECT_FALSE(c.Apply("cache_capacity_bytes", "lots").ok());
  EXPECT_EQ(c.cache_policy, "unbounded") << "a bad value must not stick";
  EXPECT_EQ(c.cache_capacity_bytes, 0u);
}

TEST(RefetchCostModelTest, EwmaSmoothingPinned) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_cost", "distance").ok());
  RefetchCostModel model(c);
  EXPECT_DOUBLE_EQ(model.CostOf(7), 1.0) << "never observed";
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 100), 100.0) << "first sample seeds";
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 200), 130.0) << "0.3*200 + 0.7*100";
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 50), 106.0) << "0.3*50 + 0.7*130";
  EXPECT_DOUBLE_EQ(model.CostOf(7), 106.0) << "CostOf reads, no update";
  EXPECT_DOUBLE_EQ(model.OnFetch(8, 0), 1.0) << "samples floored at 1";
  EXPECT_DOUBLE_EQ(model.CostOf(9), 1.0) << "per-object state";
}

TEST(RefetchCostModelTest, UniformStaysStateless) {
  SimConfig c;  // cache_cost=uniform default
  RefetchCostModel model(c);
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 500), 1.0);
  EXPECT_DOUBLE_EQ(model.CostOf(7), 1.0);
}

TEST(ContentStoreTest, CapacityAccounting) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.bounded());
  EXPECT_TRUE(store.Insert(1, 40));
  EXPECT_TRUE(store.Insert(2, 40));
  EXPECT_EQ(store.bytes_used(), 80u);
  EXPECT_EQ(store.size(), 2u);

  // 30 more bytes do not fit: the LRU victim (object 1) must go.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(3, 30, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(store.bytes_used(), 70u);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_TRUE(store.Contains(3));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().bytes_evicted, 40u);
}

TEST(ContentStoreTest, EraseAndReinsertAccounting) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 60));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_FALSE(store.Erase(1));
  // Re-inserting a resident object must not double-count bytes.
  EXPECT_TRUE(store.Insert(2, 60));
  EXPECT_TRUE(store.Insert(2, 60));
  EXPECT_EQ(store.bytes_used(), 60u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().evictions, 0u) << "erase is not an eviction";
}

TEST(ContentStoreTest, LruEvictsLeastRecentlyUsed) {
  ContentStore store(CachePolicy::kLru, 30);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_TRUE(store.Insert(3, 10));
  store.Touch(1);  // 2 is now the least recently used
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 10, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_TRUE(store.Contains(1));
}

TEST(ContentStoreTest, LfuEvictsLeastFrequentlyUsed) {
  ContentStore store(CachePolicy::kLfu, 30);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_TRUE(store.Insert(3, 10));
  store.Touch(1);
  store.Touch(1);
  store.Touch(3);
  // Frequencies: 1 -> 3, 2 -> 1, 3 -> 2. Victim: 2.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 10, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
}

TEST(ContentStoreTest, LfuBreaksTiesTowardsOldest) {
  ContentStore store(CachePolicy::kLfu, 30);
  EXPECT_TRUE(store.Insert(5, 10));
  EXPECT_TRUE(store.Insert(6, 10));
  EXPECT_TRUE(store.Insert(7, 10));
  // All frequency 1: the stalest insert (5) goes first.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(8, 10, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 5u);
}

TEST(ContentStoreTest, GdsfPrefersLargeColdVictims) {
  ContentStore store(CachePolicy::kGdsf, 100);
  EXPECT_TRUE(store.Insert(1, 50));  // large, priority 1/50
  EXPECT_TRUE(store.Insert(2, 10));  // small, priority 1/10
  EXPECT_TRUE(store.Insert(3, 40));  // large, priority 1/40
  // Equal frequency: the largest object has the lowest priority.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 30, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_TRUE(store.Contains(2));
}

TEST(ContentStoreTest, GdsfFrequencyOutweighsSizeEventually) {
  ContentStore store(CachePolicy::kGdsf, 100);
  EXPECT_TRUE(store.Insert(1, 50));
  EXPECT_TRUE(store.Insert(2, 50));
  // Heat up the big object 1 far past 2: 1's priority 6/50 > 2's 1/50.
  for (int i = 0; i < 5; ++i) store.Touch(1);
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(3, 20, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u) << "the cold same-size object must go first";
}

TEST(ContentStoreTest, UnboundedKeepsEverything) {
  ContentStore store(CachePolicy::kUnbounded, 0);
  EXPECT_FALSE(store.bounded());
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(store.Insert(id, 1 << 20));
  }
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(ContentStoreTest, BoundedUnboundedPolicyRejectsOverflow) {
  // Unbounded policy + finite capacity: nothing may be evicted, so the
  // store fills and then turns newcomers away.
  ContentStore store(CachePolicy::kUnbounded, 20);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_FALSE(store.Insert(3, 10));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().admission_rejects, 1u);
}

TEST(ContentStoreTest, OversizedObjectRejected) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 50));
  std::vector<ObjectId> evicted;
  EXPECT_FALSE(store.Insert(2, 101, &evicted));
  EXPECT_TRUE(evicted.empty()) << "a hopeless insert must not evict anyone";
  EXPECT_TRUE(store.Contains(1));
  EXPECT_EQ(store.stats().admission_rejects, 1u);
}

TEST(ContentStoreTest, ObjectsIterateInIdOrder) {
  // Summary rebuilds and full pushes must see the same sorted iteration
  // order as the std::set the store replaced.
  ContentStore store(CachePolicy::kLfu, 0);
  EXPECT_TRUE(store.Insert(30, 1));
  EXPECT_TRUE(store.Insert(10, 1));
  EXPECT_TRUE(store.Insert(20, 1));
  std::vector<ObjectId> expected = {10, 20, 30};
  EXPECT_EQ(store.keys(), expected);
  EXPECT_EQ(store.count(10), 1u);
  EXPECT_EQ(store.count(11), 0u);
}

TEST(ContentStoreTest, StatsCountHitsAndInsertions) {
  ContentStore store(CachePolicy::kLru, 0);
  EXPECT_TRUE(store.Insert(1, 10));
  store.Touch(1);
  store.Touch(1);
  store.Touch(99);  // absent: not a hit
  EXPECT_EQ(store.stats().insertions, 1u);
  EXPECT_EQ(store.stats().hits, 2u);
}

TEST(ContentStoreTest, GdsfDistanceCostProtectsFarFetchedObjects) {
  // Same size, same frequency: under plain GDSF the insertion order
  // decides; with a distance cost the cheap-to-refetch (nearby) object
  // must go first even though it was inserted later.
  ContentStore store(CachePolicy::kGdsf, 100);
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(1, 50, &evicted, /*cost=*/400.0));  // far
  EXPECT_TRUE(store.Insert(2, 50, &evicted, /*cost=*/10.0));   // near
  EXPECT_TRUE(store.Insert(3, 40, &evicted, /*cost=*/10.0));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u) << "the near object is the cheaper loss";
  EXPECT_TRUE(store.Contains(1));
}

TEST(ContentStoreTest, UniformCostMatchesPlainGdsf) {
  // cost 1.0 multiplies the priority by exactly 1 (IEEE-exact), so the
  // default cost model cannot perturb plain-GDSF victim choice.
  ContentStore plain(CachePolicy::kGdsf, 100);
  ContentStore costed(CachePolicy::kGdsf, 100);
  for (ObjectId id = 1; id <= 3; ++id) {
    EXPECT_TRUE(plain.Insert(id, 30 + id));
    EXPECT_TRUE(costed.Insert(id, 30 + id, nullptr, 1.0));
  }
  plain.Touch(2);
  costed.Touch(2);
  std::vector<ObjectId> evicted_plain;
  std::vector<ObjectId> evicted_costed;
  EXPECT_TRUE(plain.Insert(9, 60, &evicted_plain));
  EXPECT_TRUE(costed.Insert(9, 60, &evicted_costed));
  EXPECT_EQ(evicted_plain, evicted_costed);
}

TEST(ContentStoreTest, ResizeAdjustsAccountingAndEvictsOnGrowth) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 40));
  EXPECT_TRUE(store.Insert(2, 40));
  std::vector<ObjectId> evicted;
  // Shrink: no evictions, accounting follows.
  EXPECT_TRUE(store.Resize(2, 20, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(store.bytes_used(), 60u);
  // Growth past capacity: the LRU victim (1) must go.
  EXPECT_TRUE(store.Resize(2, 70, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{1}));
  EXPECT_EQ(store.bytes_used(), 70u);
  EXPECT_EQ(store.stats().evictions, 1u);
  // Growth past the whole budget: the resized key itself is evicted.
  evicted.clear();
  EXPECT_FALSE(store.Resize(2, 101, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{2}));
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.bytes_used(), 0u);
  // Resizing an absent key reports failure without side effects.
  EXPECT_FALSE(store.Resize(7, 10, &evicted));
}

TEST(ContentStoreTest, MultiEvictionToFitOneLargeObject) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 30));
  EXPECT_TRUE(store.Insert(2, 30));
  EXPECT_TRUE(store.Insert(3, 30));
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 80, &evicted));
  // Fitting 80 into 100 leaves room for only 20: every 30-byte resident
  // must go, oldest first.
  std::vector<ObjectId> expected = {1, 2, 3};
  EXPECT_EQ(evicted, expected);
  EXPECT_EQ(store.bytes_used(), 80u);
  EXPECT_TRUE(store.Contains(4));
}

}  // namespace
}  // namespace flower
