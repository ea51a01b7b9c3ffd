// Unit tests for the bounded peer storage (src/cache/): the object
// budget, LRU victim choice, admission, and config plumbing.
#include "cache/content_store.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/directory_store.h"
#include "common/config.h"
#include "common/rng.h"

namespace flower {
namespace {

// A capacity is all it takes: a finite cache_capacity_bytes or
// directory_index_capacity makes the store evict its least recently used
// resident, and 0 keeps everything.
TEST(CacheConfigTest, CapacityAloneEvictsLruInBothStores) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_capacity_bytes", "20480").ok());  // 2 objects
  ContentStore content = ContentStore::FromConfig(c);
  EXPECT_TRUE(content.bounded());
  EXPECT_TRUE(content.Insert(1));
  EXPECT_TRUE(content.Insert(2));
  content.Touch(1);  // 2 is now the least recently used
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(content.Insert(3, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{2}));
  EXPECT_EQ(content.keys(), (std::vector<ObjectId>{1, 3}));

  ASSERT_TRUE(c.Apply("directory_index_capacity", "128").ok());  // 2 entries
  DirectoryStore index = DirectoryStore::FromConfig(c);
  EXPECT_TRUE(index.bounded());
  DirectoryStore::Delta d;
  ASSERT_TRUE(index.Admit(1, 0, 0, &d));
  ASSERT_TRUE(index.Admit(2, 0, 0, &d));
  index.Touch(1);  // 2 is now the least recently used
  ASSERT_TRUE(index.Admit(3, 0, 0, &d));
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{2}));

  // Capacity 0 is the paper's keep-everything store.
  ASSERT_TRUE(c.Apply("cache_capacity_bytes", "0").ok());
  ASSERT_TRUE(c.Apply("directory_index_capacity", "0").ok());
  EXPECT_FALSE(ContentStore::FromConfig(c).bounded());
  EXPECT_FALSE(DirectoryStore::FromConfig(c).bounded());
}

TEST(CachePolicyTest, ConfigRejectsBadValues) {
  // The policy key is gone (a capacity alone picks LRU), and a malformed
  // capacity is refused; neither leaves the store bounded.
  SimConfig c;
  EXPECT_FALSE(c.Apply("cache_policy", "bogus").ok());
  EXPECT_FALSE(c.Apply("cache_capacity_bytes", "lots").ok());
  EXPECT_EQ(c.cache_capacity_bytes, 0u) << "a bad value must not stick";
  EXPECT_FALSE(ContentStore::FromConfig(c).bounded());
}

TEST(ContentStoreTest, CapacityAccounting) {
  ContentStore store(2);
  EXPECT_TRUE(store.bounded());
  EXPECT_TRUE(store.Insert(1));
  EXPECT_TRUE(store.Insert(2));
  EXPECT_EQ(store.size(), 2u);

  // A third object does not fit: the LRU victim (object 1) must go.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(3, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_TRUE(store.Contains(3));
}

TEST(ContentStoreTest, EraseAndReinsertAccounting) {
  ContentStore store(2);
  EXPECT_TRUE(store.Insert(1));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.Erase(1));
  // Re-inserting a resident object must not take a second place.
  EXPECT_TRUE(store.Insert(2));
  EXPECT_TRUE(store.Insert(2));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ContentStoreTest, LruEvictsLeastRecentlyUsed) {
  ContentStore store(3);
  EXPECT_TRUE(store.Insert(1));
  EXPECT_TRUE(store.Insert(2));
  EXPECT_TRUE(store.Insert(3));
  store.Touch(1);  // 2 is now the least recently used
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_TRUE(store.Contains(1));
}

TEST(ContentStoreTest, UnboundedKeepsEverything) {
  ContentStore store;
  EXPECT_FALSE(store.bounded());
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(store.Insert(id));
  }
  EXPECT_EQ(store.size(), 1000u);
}

TEST(ContentStoreTest, OversizedObjectRejected) {
  // A budget below one object holds nothing: every object is turned
  // away, and nobody is evicted for it.
  SimConfig c;
  c.cache_capacity_bytes = c.object_size_bits / 8 - 1;
  ContentStore store = ContentStore::FromConfig(c);
  EXPECT_TRUE(store.bounded());
  std::vector<ObjectId> evicted;
  EXPECT_FALSE(store.Insert(2, &evicted));
  EXPECT_TRUE(evicted.empty()) << "a hopeless insert must not evict anyone";
  EXPECT_FALSE(store.Contains(2));
  EXPECT_TRUE(store.empty());
}

TEST(ContentStoreTest, ObjectsIterateInIdOrder) {
  // Summary rebuilds and full pushes must see the same sorted iteration
  // order as the std::set the store replaced.
  ContentStore store;
  EXPECT_TRUE(store.Insert(30));
  EXPECT_TRUE(store.Insert(10));
  EXPECT_TRUE(store.Insert(20));
  std::vector<ObjectId> expected = {10, 20, 30};
  EXPECT_EQ(store.keys(), expected);
  EXPECT_TRUE(store.Contains(10));
  EXPECT_FALSE(store.Contains(11));
}

// Randomized check of a bounded store against a model that keeps its own
// byte accounting and recency order, so every victim is predicted: an
// Insert of a new key evicts the least recently inserted or touched
// residents until the newcomer fits, an Insert of a resident key or a
// Touch makes it the most recently used, and Erase is not an eviction.
// Every object has the one configured size, and the store is built from
// the byte budget as a run builds it.
TEST(ContentStoreTest, LruRandomOpsMatchRecencyModel) {
  constexpr uint64_t kCapacity = 100;
  constexpr uint64_t kObjectBytes = 12;  // 8 objects fit, 4 bytes spare
  constexpr ObjectId kMaxId = 29;
  SimConfig c;
  c.object_size_bits = 8 * kObjectBytes;
  c.cache_capacity_bytes = kCapacity;
  ContentStore store = ContentStore::FromConfig(c);
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
      std::vector<ObjectId> evicted;
      EXPECT_TRUE(store.Insert(id, &evicted));
      std::vector<ObjectId> expected;
      if (model.count(id) > 0) {
        forget(id);
        recency.push_back(id);
      } else {
        while (model_bytes() + kObjectBytes > kCapacity) {
          const ObjectId victim = recency.front();
          model.erase(victim);
          forget(victim);
          expected.push_back(victim);
        }
        model[id] = kObjectBytes;
        recency.push_back(id);
      }
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
  }
  EXPECT_GT(evictions, 100u) << "the run must keep the store at capacity";
}

}  // namespace
}  // namespace flower
