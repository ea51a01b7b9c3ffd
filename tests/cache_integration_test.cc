// Integration tests of the cache subsystem inside the full Flower-CDN
// stack: capacity pressure evicts, eviction deltas reach the directory
// index, a stale (pre-eviction) bloom summary makes a peer-direct query
// fall back through the pipeline — counted, never lost.
#include <gtest/gtest.h>

#include "bloom/summary.h"
#include "cache/content_store.h"
#include "core/content_peer.h"
#include "core/flower_system.h"
#include "test_util.h"

namespace flower {
namespace {

class CacheIntegrationTest : public ::testing::Test {
 protected:
  static SimConfig Config() {
    SimConfig c = TinyConfig();
    // Room for exactly two of the fixed-size 10 KB objects per peer.
    c.cache_capacity_bytes = 2 * (c.object_size_bits / 8);
    return c;
  }

  explicit CacheIntegrationTest(SimConfig config)
      : world_(std::move(config)),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
    const auto& pool = system_.deployment().client_pools[0][0];
    node_a_ = pool[0];
    node_b_ = pool[1];
    obj_ = [this](size_t rank) {
      return system_.catalog().site(0).objects[rank];
    };
  }

  CacheIntegrationTest() : CacheIntegrationTest(Config()) {}

  /// Makes the peer at `node` request `rank` and settles the network.
  void Fetch(NodeId node, size_t rank) {
    system_.SubmitQuery(node, 0, obj_(rank));
    world_.sim()->RunFor(kMinute);
  }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
  NodeId node_a_ = 0;
  NodeId node_b_ = 0;
  std::function<ObjectId(size_t)> obj_;
};

TEST_F(CacheIntegrationTest, CapacityPressureEvictsLru) {
  Fetch(node_a_, 0);
  Fetch(node_a_, 1);
  ContentPeer* a = system_.FindContentPeer(node_a_);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->content().size(), 2u);

  Fetch(node_a_, 2);  // third object: the LRU resident (obj 0) must go
  EXPECT_EQ(a->content().size(), 2u);
  EXPECT_FALSE(a->content().Contains(obj_(0)));
  EXPECT_TRUE(a->content().Contains(obj_(1)));
  EXPECT_TRUE(a->content().Contains(obj_(2)));
  EXPECT_GE(metrics_.cache_evictions(), 1u);
}

TEST_F(CacheIntegrationTest, EvictionDeltaReachesDirectoryIndex) {
  Fetch(node_a_, 0);
  Fetch(node_a_, 1);
  Fetch(node_a_, 2);  // evicts obj 0 and pushes the removal delta
  ContentPeer* a = system_.FindContentPeer(node_a_);
  ASSERT_NE(a, nullptr);
  DirectoryPeer* dir = system_.FindDirectory(0, a->locality());
  ASSERT_NE(dir, nullptr);
  const std::vector<ObjectSlot>* claimed = dir->IndexObjectsOf(a->address());
  ASSERT_NE(claimed, nullptr);
  auto claims = [&](ObjectId id) {
    return std::binary_search(claimed->begin(), claimed->end(),
                              system_.catalog().site(0).SlotOf(id));
  };
  EXPECT_FALSE(claims(obj_(0)))
      << "the eviction must propagate to the directory as a removal delta";
  EXPECT_TRUE(claims(obj_(2)));
}

// Same world, but with gossip exchanges disabled (one enormous period):
// B's view of A then holds exactly the summary this test hands it, so the
// pre-eviction (stale) bloom summary deterministically drives B's query
// to A. With gossip running, A's refreshed summary could race the test's
// injected one and win the view merge.
class StaleSummaryTest : public CacheIntegrationTest {
 protected:
  static SimConfig NoGossipConfig() {
    SimConfig c = Config();
    c.gossip_period = 1000 * kHour;
    return c;
  }
  StaleSummaryTest() : CacheIntegrationTest(NoGossipConfig()) {}
};

TEST_F(StaleSummaryTest, StaleSummaryFallsBackAndIsCounted) {
  // A joins and churns obj 0 out of its cache.
  Fetch(node_a_, 0);
  Fetch(node_a_, 1);
  Fetch(node_a_, 2);
  ContentPeer* a = system_.FindContentPeer(node_a_);
  ASSERT_NE(a, nullptr);
  ASSERT_FALSE(a->content().Contains(obj_(0)));
  ASSERT_GE(metrics_.cache_evictions(), 1u);

  // B joins the same overlay; its welcome contacts name A without a
  // summary.
  Fetch(node_b_, 3);
  ContentPeer* b = system_.FindContentPeer(node_b_);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->joined());

  // Hand B a pre-eviction summary of A — exactly what B would hold had it
  // gossiped with A before the eviction.
  const SimConfig& cfg = world_.config();
  auto gossip = std::make_unique<GossipReplyMsg>();
  gossip->own_summary = ContentSummary::Build(
      cfg.num_objects_per_website, cfg.summary_bits_per_object,
      cfg.summary_num_hashes, [&](BloomFilter& f) { f.Add(obj_(0)); });
  world_.network()->Send(a, b->address(), std::move(gossip));
  world_.sim()->RunFor(kSecond);
  const ViewEntry* entry = b->view().Find(a->address());
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->summary, nullptr);
  ASSERT_TRUE(entry->summary->MaybeContains(obj_(0)));

  // B now queries obj 0: peer-direct to A misses (stale summary), and the
  // query must fall back through the pipeline until someone serves it.
  uint64_t stale_before = metrics_.stale_redirects();
  uint64_t served_before = metrics_.queries_served();
  b->RequestObject(obj_(0));
  world_.sim()->RunFor(kMinute);

  EXPECT_GE(metrics_.stale_redirects(), stale_before + 1)
      << "the misdirected peer-direct hop must be counted";
  EXPECT_EQ(metrics_.queries_served(), served_before + 1)
      << "the query must fall back and be served, not dropped";
  EXPECT_TRUE(b->content().Contains(obj_(0)));
}

// Gossip off (deterministic view state) and a high push threshold so
// deltas batch across several fetches — opening the window where an
// object can be evicted and re-fetched before the next push.
class BatchedPushTest : public CacheIntegrationTest {
 protected:
  static SimConfig BatchedConfig() {
    SimConfig c = Config();
    c.gossip_period = 1000 * kHour;
    c.cache_capacity_bytes = 3 * (c.object_size_bits / 8);
    c.push_threshold = 0.7;
    return c;
  }
  BatchedPushTest() : CacheIntegrationTest(BatchedConfig()) {}
};

TEST_F(BatchedPushTest, EvictThenRefetchInOnePushWindowKeepsIndexClaim) {
  // Fill the 3-object cache, then churn it so obj 1 is evicted and
  // re-fetched within a single push window. The resulting delta must not
  // list obj 1 as both added and removed — the directory applies
  // additions first, so the pair would net out to a wrong removal.
  for (size_t rank : {0u, 1u, 2u, 3u, 4u}) Fetch(node_a_, rank);
  ContentPeer* a = system_.FindContentPeer(node_a_);
  ASSERT_NE(a, nullptr);
  ASSERT_FALSE(a->content().Contains(obj_(1)));  // evicted by rank 4

  Fetch(node_a_, 1);  // re-fetch within the batching window
  ASSERT_TRUE(a->content().Contains(obj_(1)));

  DirectoryPeer* dir = system_.FindDirectory(0, a->locality());
  ASSERT_NE(dir, nullptr);
  const std::vector<ObjectSlot>* claimed = dir->IndexObjectsOf(a->address());
  ASSERT_NE(claimed, nullptr);
  auto claims = [&](ObjectId id) {
    return std::binary_search(claimed->begin(), claimed->end(),
                              system_.catalog().site(0).SlotOf(id));
  };
  EXPECT_TRUE(claims(obj_(1)))
      << "a held object must stay claimed after an evict+refetch push";
  for (size_t rank = 0; rank < 5; ++rank) {
    if (a->content().Contains(obj_(rank))) continue;
    EXPECT_FALSE(claims(obj_(rank)))
        << "rank " << rank << " was evicted and must not stay claimed";
  }
}

TEST_F(CacheIntegrationTest, AllQueriesServedUnderSteadyPressure) {
  // Drive one peer through far more objects than its cache holds: every
  // miss must still resolve (evictions never strand a query), and the
  // store must never exceed its budget.
  for (size_t rank = 0; rank < 20; ++rank) Fetch(node_a_, rank);
  ContentPeer* a = system_.FindContentPeer(node_a_);
  ASSERT_NE(a, nullptr);
  EXPECT_LE(a->content().size(), 2u);
  EXPECT_EQ(metrics_.queries_served(), metrics_.queries_submitted());
  EXPECT_GE(metrics_.cache_evictions(), 18u - a->content().size());
}

}  // namespace
}  // namespace flower
