// Chord tests: neighbor reads, fingers, the known-peers cache across joins
// and leaves, recursive routing correctness and hop complexity.
#include "dht/chord_node.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dht/chord_ring.h"
#include "stats/metrics.h"
#include "test_util.h"

namespace flower {
namespace {

class ProbeMsg
    : public MessageOf<MessageKind::kProbe, TrafficClass::kControl> {
 public:
  uint64_t SizeBits() const override { return 64; }
};

class RecordingApp : public KbrApp {
 public:
  void Deliver(Key key, MessagePtr payload,
               const DeliveryInfo& info) override {
    (void)payload;
    ++deliveries;
    last_key = key;
    last_hops = info.hops;
  }
  int deliveries = 0;
  Key last_key = 0;
  int last_hops = -1;
};

class ChordOracleTest : public ::testing::Test {
 protected:
  ChordOracleTest() : world_(TinyConfig()), metrics_(world_.config()) {
    ChordConfig cc;
    cc.id_bits = 16;
    ring_ = std::make_unique<ChordRing>(cc, &metrics_);
  }

  ChordNode* AddNode(Key id, NodeId node) {
    auto n = std::make_unique<ChordNode>(world_.sim(), world_.network(),
                                         ring_.get(), id);
    n->set_app(&app_);
    n->Activate(node);
    EXPECT_TRUE(n->JoinStructural());
    nodes_.push_back(std::move(n));
    return nodes_.back().get();
  }

  TestWorld world_;
  Metrics metrics_;
  std::unique_ptr<ChordRing> ring_;
  std::vector<std::unique_ptr<ChordNode>> nodes_;
  RecordingApp app_;
};

TEST_F(ChordOracleTest, SuccessorPredecessorOnSmallRing) {
  ChordNode* a = AddNode(100, 0);
  ChordNode* b = AddNode(200, 1);
  ChordNode* c = AddNode(300, 2);
  EXPECT_EQ(a->successor().id, 200u);
  EXPECT_EQ(b->successor().id, 300u);
  EXPECT_EQ(c->successor().id, 100u);  // wraps
  EXPECT_EQ(a->predecessor().id, 300u);
  EXPECT_EQ(c->predecessor().id, 200u);
}

TEST_F(ChordOracleTest, SingleNodeOwnsEverything) {
  ChordNode* solo = AddNode(42, 0);
  EXPECT_EQ(solo->successor().addr, solo->address());
  solo->Route(1000, std::make_unique<ProbeMsg>());
  world_.sim()->Run();
  EXPECT_EQ(app_.deliveries, 1);
  EXPECT_EQ(app_.last_hops, 0);
}

TEST_F(ChordOracleTest, DuplicateIdRejected) {
  AddNode(100, 0);
  auto dup = std::make_unique<ChordNode>(world_.sim(), world_.network(),
                                         ring_.get(), 100);
  dup->Activate(1);
  EXPECT_FALSE(dup->JoinStructural());
  world_.network()->UnregisterPeer(dup.get());
}

TEST_F(ChordOracleTest, RouteDeliversAtSuccessorOfKey) {
  AddNode(100, 0);
  ChordNode* b = AddNode(200, 1);
  AddNode(300, 2);
  b->set_app(&app_);
  // Key 150 is owned by node 200 (successor of the key).
  nodes_[2]->Route(150, std::make_unique<ProbeMsg>());
  world_.sim()->Run();
  EXPECT_EQ(app_.deliveries, 1);
  EXPECT_EQ(app_.last_key, 150u);
}

TEST_F(ChordOracleTest, ExactKeyDeliversAtThatNode) {
  ChordNode* a = AddNode(100, 0);
  AddNode(200, 1);
  a->Route(200, std::make_unique<ProbeMsg>());
  world_.sim()->Run();
  EXPECT_EQ(app_.deliveries, 1);
  EXPECT_EQ(app_.last_key, 200u);
}

TEST_F(ChordOracleTest, FailedNodeLeavesRing) {
  ChordNode* a = AddNode(100, 0);
  ChordNode* b = AddNode(200, 1);
  AddNode(300, 2);
  b->Fail();
  EXPECT_EQ(ring_->size(), 2u);
  EXPECT_EQ(a->successor().id, 300u);
  // Keys formerly owned by 200 now route to 300.
  a->Route(150, std::make_unique<ProbeMsg>());
  world_.sim()->Run();
  EXPECT_EQ(app_.deliveries, 1);
}

TEST_F(ChordOracleTest, SuccessorListSkipsSelfAndOrders) {
  ChordNode* a = AddNode(10, 0);
  AddNode(20, 1);
  AddNode(30, 2);
  AddNode(40, 3);
  auto list = a->SuccessorList();
  ASSERT_GE(list.size(), 3u);
  EXPECT_EQ(list[0].id, 20u);
  EXPECT_EQ(list[1].id, 30u);
  EXPECT_EQ(list[2].id, 40u);
}

TEST_F(ChordOracleTest, KnownPeersIncludesNeighbors) {
  ChordNode* a = AddNode(10, 0);
  AddNode(20, 1);
  AddNode(60000, 2);
  auto known = a->KnownPeers();
  bool has_succ = false, has_pred = false;
  for (const NodeRef& r : known) {
    if (r.id == 20) has_succ = true;
    if (r.id == 60000) has_pred = true;
  }
  EXPECT_TRUE(has_succ);
  EXPECT_TRUE(has_pred);
}

/// KnownPeers() as a node computed it before it was cached: straight from
/// the ring, fingers first, then the predecessor and the successor.
std::vector<NodeRef> KnownPeersFromRing(const ChordRing& ring,
                                        const ChordNode& node) {
  const IdSpace& sp = ring.space();
  std::vector<NodeRef> known;
  auto push_unique = [&known](const ChordNode* n) {
    if (n == nullptr || !n->self_ref().valid()) return;
    for (const NodeRef& e : known) {
      if (e.addr == n->address()) return;
    }
    known.push_back(n->self_ref());
  };
  for (int i = 0; i < sp.bits(); ++i) {
    push_unique(ring.SuccessorOf(sp.Add(node.id(), 1ULL << i)));
  }
  push_unique(ring.PredecessorOf(node.id()));
  const ChordNode* s = ring.SuccessorOf(sp.Add(node.id(), 1));
  push_unique(s == nullptr ? &node : s);  // alone: its own successor
  return known;
}

TEST(ChordNeighborCacheTest, CachedReadsMatchRingReadsAcrossJoinsAndLeaves) {
  // Members and failed nodes alike read KnownPeers() (the one cached read)
  // after joins and leaves; each read must equal a fresh read of the ring.
  SimConfig cfg = TinyConfig();
  TestWorld world(cfg, 3);
  Metrics metrics(cfg);
  ChordConfig cc;
  cc.id_bits = 12;  // a crowded space, so fingers collide and wrap
  ChordRing ring(cc, &metrics);
  Rng rng(29);
  std::vector<std::unique_ptr<ChordNode>> nodes;
  for (int i = 0; i < 120; ++i) {
    nodes.push_back(std::make_unique<ChordNode>(
        world.sim(), world.network(), &ring,
        ring.space().Clamp(rng.Next())));
  }
  size_t checks = 0;
  for (int step = 0; step < 600; ++step) {
    const size_t i = rng.Index(nodes.size());
    ChordNode* node = nodes[i].get();
    if (node->joined()) {
      node->Fail();
    } else {
      node->Activate(static_cast<NodeId>(i));
      if (!node->JoinStructural()) {
        world.network()->UnregisterPeer(node);  // id taken: stays out
      }
    }
    // Every few steps read every node (warm caches must notice the
    // change); otherwise a random handful.
    const bool all = step % 10 == 0;
    for (size_t k = 0; k < (all ? nodes.size() : 5); ++k) {
      const ChordNode& n = *nodes[all ? k : rng.Index(nodes.size())];
      ASSERT_EQ(n.KnownPeers(), KnownPeersFromRing(ring, n))
          << "step " << step;
      ++checks;
    }
  }
  EXPECT_GT(checks, 7000u);
  EXPECT_GT(ring.size(), 10u);
}

// Property sweep: on rings of various sizes, every (start, key) pair routes
// to the correct owner, and hop counts stay logarithmic.
class ChordRoutingSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChordRoutingSweep, AllRoutesReachOwnerWithinLogHops) {
  const int n = GetParam();
  SimConfig cfg = TinyConfig();
  cfg.num_topology_nodes = n + 10;
  TestWorld world(cfg, 7);
  Metrics metrics(cfg);
  ChordConfig cc;
  cc.id_bits = 24;
  ChordRing ring(cc, &metrics);
  RecordingApp app;
  std::vector<std::unique_ptr<ChordNode>> nodes;
  Rng rng(13);
  for (int i = 0; i < n; ++i) {
    Key id = ring.space().Clamp(Mix64(static_cast<uint64_t>(i) + 1));
    while (ring.Contains(id)) id = ring.space().Add(id, 1);
    auto node = std::make_unique<ChordNode>(world.sim(), world.network(),
                                            &ring, id);
    node->set_app(&app);
    node->Activate(static_cast<NodeId>(i));
    ASSERT_TRUE(node->JoinStructural());
    nodes.push_back(std::move(node));
  }
  // Finger i of every node is the live successor of id + 2^i.
  for (const auto& node : nodes) {
    for (int i = 0; i < ring.space().bits(); ++i) {
      ChordNode* want =
          ring.SuccessorOf(ring.space().Add(node->id(), 1ULL << i));
      ASSERT_EQ(node->finger(i), want->self_ref())
          << "n=" << n << " finger " << i;
    }
  }
  int max_hops = 0;
  const int probes = 200;
  for (int i = 0; i < probes; ++i) {
    Key key = ring.space().Clamp(rng.Next());
    ChordNode* start = nodes[rng.Index(nodes.size())].get();
    ChordNode* owner = ring.SuccessorOf(key);
    int before = app.deliveries;
    start->Route(key, std::make_unique<ProbeMsg>());
    world.sim()->Run();
    ASSERT_EQ(app.deliveries, before + 1) << "key " << key;
    EXPECT_EQ(app.last_key, key);
    // The message must have been delivered at the owner: check that the
    // owner is responsible (app is shared, so verify by ring lookup).
    EXPECT_EQ(ring.SuccessorOf(key), owner);
    max_hops = std::max(max_hops, app.last_hops);
  }
  // Chord guarantees O(log n) hops; allow a generous constant.
  double bound = 3.0 * std::log2(static_cast<double>(n)) + 4.0;
  EXPECT_LE(max_hops, static_cast<int>(bound)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(RingSizes, ChordRoutingSweep,
                         ::testing::Values(2, 3, 8, 32, 128, 512));

}  // namespace
}  // namespace flower
