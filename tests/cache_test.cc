// Unit tests for the bounded peer storage (src/cache/): byte accounting,
// LRU victim choice, admission control, and config plumbing.
#include "cache/content_store.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"

namespace flower {
namespace {

TEST(CachePolicyTest, ParseRoundTrips) {
  // Both policy keys take exactly two values, each kept as written.
  for (const char* key : {"cache_policy", "directory_index_policy"}) {
    SimConfig c;
    const std::string& field = std::string(key) == "cache_policy"
                                   ? c.cache_policy
                                   : c.directory_index_policy;
    for (const char* value : {"lru", "unbounded"}) {
      ASSERT_TRUE(c.Apply(key, value).ok()) << key << "=" << value;
      EXPECT_EQ(field, value);
    }
  }
}

TEST(CachePolicyTest, ParseRejectsUnknown) {
  // Only unbounded and lru are accepted; every other name is rejected
  // with the accepted list.
  for (const char* key : {"cache_policy", "directory_index_policy"}) {
    for (const char* value : {"arc", "lfu", "gdsf", ""}) {
      SimConfig c;
      Status s = c.Apply(key, value);
      ASSERT_FALSE(s.ok()) << key << "=" << value;
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(s.ToString().find("accepted: unbounded, lru"),
                std::string::npos)
          << s.ToString();
    }
  }
}

TEST(CachePolicyTest, ConfigKeysApply) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_policy", "lru").ok());
  ASSERT_TRUE(c.Apply("cache_capacity_bytes", "20").ok());
  EXPECT_EQ(c.cache_policy, "lru");
  EXPECT_EQ(c.cache_capacity_bytes, 20u);
  ContentStore store = ContentStore::FromConfig(c);
  EXPECT_EQ(store.capacity_bytes(), 20u);
  // An lru store evicts to make room where an unbounded one would
  // turn the newcomer away.
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(3, 10, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{1}));
}

TEST(CachePolicyTest, ConfigRejectsBadValues) {
  SimConfig c;
  EXPECT_FALSE(c.Apply("cache_policy", "bogus").ok());
  EXPECT_FALSE(c.Apply("cache_capacity_bytes", "lots").ok());
  EXPECT_EQ(c.cache_policy, "unbounded") << "a bad value must not stick";
  EXPECT_EQ(c.cache_capacity_bytes, 0u);
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

TEST(ContentStoreTest, UnboundedKeepsEverything) {
  ContentStore store(CachePolicy::kUnbounded, 0);
  EXPECT_FALSE(store.bounded());
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(store.Insert(id, 1 << 20));
  }
  EXPECT_EQ(store.size(), 1000u);
}

TEST(ContentStoreTest, BoundedUnboundedPolicyRejectsOverflow) {
  // Unbounded policy + finite capacity: nothing may be evicted, so the
  // store fills and then turns newcomers away.
  ContentStore store(CachePolicy::kUnbounded, 20);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  std::vector<ObjectId> evicted;
  EXPECT_FALSE(store.Insert(3, 10, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Contains(3));
  // A grown resident cannot evict anyone else either: it leaves itself.
  evicted.clear();
  EXPECT_FALSE(store.Resize(1, 15, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{1}));
  EXPECT_EQ(store.bytes_used(), 10u);
}

TEST(ContentStoreTest, OversizedObjectRejected) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 50));
  std::vector<ObjectId> evicted;
  EXPECT_FALSE(store.Insert(2, 101, &evicted));
  EXPECT_TRUE(evicted.empty()) << "a hopeless insert must not evict anyone";
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
}

TEST(ContentStoreTest, ObjectsIterateInIdOrder) {
  // Summary rebuilds and full pushes must see the same sorted iteration
  // order as the std::set the store replaced.
  ContentStore store(CachePolicy::kLru, 0);
  EXPECT_TRUE(store.Insert(30, 1));
  EXPECT_TRUE(store.Insert(10, 1));
  EXPECT_TRUE(store.Insert(20, 1));
  std::vector<ObjectId> expected = {10, 20, 30};
  EXPECT_EQ(store.keys(), expected);
  EXPECT_TRUE(store.Contains(10));
  EXPECT_FALSE(store.Contains(11));
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

// Randomized check of an lru store against a model that keeps its own
// byte accounting and recency order, so every victim is predicted: an
// Insert of a new key evicts the least recently inserted or touched
// residents until the newcomer fits, an Insert of a resident key or a
// Touch makes it the most recently used, a key larger than the whole
// budget is turned away without evicting anyone, and Erase is not an
// eviction.
TEST(ContentStoreTest, LruRandomOpsMatchRecencyModel) {
  constexpr uint64_t kCapacity = 100;
  constexpr ObjectId kMaxId = 29;
  ContentStore store(CachePolicy::kLru, kCapacity);
  std::map<ObjectId, uint64_t> model;  // resident -> size
  std::vector<ObjectId> recency;       // least recently used first
  auto forget = [&](ObjectId id) {
    recency.erase(std::remove(recency.begin(), recency.end(), id),
                  recency.end());
  };
  auto model_bytes = [&] {
    uint64_t bytes = 0;
    for (const auto& [id, size] : model) bytes += size;
    return bytes;
  };
  Rng rng(7);
  uint64_t evictions = 0;
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const auto id = static_cast<ObjectId>(rng.Index(kMaxId + 1));
    const uint64_t op = rng.Index(100);
    if (op < 60) {
      const uint64_t size =
          rng.Bernoulli(0.02) ? kCapacity + 1 : 1 + rng.Index(40);
      std::vector<ObjectId> evicted;
      const bool inserted = store.Insert(id, size, &evicted);
      std::vector<ObjectId> expected;
      bool admit = true;
      if (model.count(id) > 0) {
        forget(id);
        recency.push_back(id);
      } else if (size > kCapacity) {
        admit = false;
      } else {
        while (model_bytes() + size > kCapacity) {
          const ObjectId victim = recency.front();
          model.erase(victim);
          forget(victim);
          expected.push_back(victim);
        }
        model[id] = size;
        recency.push_back(id);
      }
      EXPECT_EQ(inserted, admit);
      EXPECT_EQ(evicted, expected);
      evictions += evicted.size();
    } else if (op < 85) {
      store.Touch(id);
      if (model.count(id) > 0) {
        forget(id);
        recency.push_back(id);
      }
    } else {
      EXPECT_EQ(store.Erase(id), model.erase(id) > 0);
      forget(id);
    }
    std::vector<ObjectId> keys;
    for (const auto& [key, size] : model) keys.push_back(key);
    ASSERT_EQ(store.keys(), keys);
    ASSERT_EQ(store.bytes_used(), model_bytes());
  }
  EXPECT_GT(evictions, 100u) << "the run must keep the store at capacity";
}

}  // namespace
}  // namespace flower
