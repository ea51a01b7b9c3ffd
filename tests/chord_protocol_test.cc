// Chord tests in protocol mode: join via find_successor, stabilization,
// notify, finger repair, failure recovery through successor lists.
#include <gtest/gtest.h>

#include "dht/chord_node.h"
#include "dht/chord_ring.h"
#include "test_util.h"

namespace flower {
namespace {

class ProbeMsg : public MessageOf<MessageKind::kProbe, TrafficClass::kDht> {
 public:
  uint64_t SizeBits() const override { return 64; }
};

class RecordingApp : public KbrApp {
 public:
  void Deliver(Key key, MessagePtr payload,
               const DeliveryInfo& info) override {
    (void)payload;
    (void)info;
    ++deliveries;
    last_key = key;
  }
  int deliveries = 0;
  Key last_key = 0;
};

class ChordProtocolTest : public ::testing::Test {
 protected:
  ChordProtocolTest() : world_(TinyConfig()) {
    ChordConfig cc;
    cc.id_bits = 16;
    cc.oracle = false;
    cc.successor_list_size = 4;
    cc.stabilize_period = 10 * kSecond;
    cc.fix_fingers_period = 5 * kSecond;
    cc.check_predecessor_period = 10 * kSecond;
    ring_ = std::make_unique<ChordRing>(cc);
  }

  ChordNode* MakeNode(Key id, NodeId node) {
    auto n = std::make_unique<ChordNode>(world_.sim(), world_.network(),
                                         ring_.get(), id);
    n->set_app(&app_);
    n->Activate(node);
    nodes_.push_back(std::move(n));
    return nodes_.back().get();
  }

  /// Bootstraps a protocol ring: the first node is alone; others join
  /// through it; stabilization runs for `settle`.
  std::vector<ChordNode*> BuildRing(const std::vector<Key>& ids,
                                    SimTime settle = 30 * kMinute) {
    std::vector<ChordNode*> out;
    for (size_t i = 0; i < ids.size(); ++i) {
      ChordNode* n = MakeNode(ids[i], static_cast<NodeId>(i));
      if (i == 0) {
        ring_->Insert(n);  // bookkeeping; protocol state is its own
        n->StartMaintenance();
        // A solo protocol node is its own ring.
      } else {
        n->JoinViaProtocol(out[0]->address());
      }
      out.push_back(n);
      world_.sim()->RunFor(2 * kMinute);  // let the join settle
    }
    world_.sim()->RunFor(settle);
    return out;
  }

  TestWorld world_;
  std::unique_ptr<ChordRing> ring_;
  std::vector<std::unique_ptr<ChordNode>> nodes_;
  RecordingApp app_;
};

TEST_F(ChordProtocolTest, JoinsFormCorrectSuccessorCycle) {
  auto ring = BuildRing({100, 200, 300, 400, 500});
  // After stabilization, successors form the sorted cycle.
  EXPECT_EQ(ring[0]->successor().id, 200u);
  EXPECT_EQ(ring[1]->successor().id, 300u);
  EXPECT_EQ(ring[2]->successor().id, 400u);
  EXPECT_EQ(ring[3]->successor().id, 500u);
  EXPECT_EQ(ring[4]->successor().id, 100u);
}

TEST_F(ChordProtocolTest, PredecessorsConvergeViaNotify) {
  auto ring = BuildRing({100, 200, 300});
  EXPECT_EQ(ring[0]->predecessor().id, 300u);
  EXPECT_EQ(ring[1]->predecessor().id, 100u);
  EXPECT_EQ(ring[2]->predecessor().id, 200u);
}

TEST_F(ChordProtocolTest, RoutingWorksAfterStabilization) {
  auto ring = BuildRing({100, 200, 300, 400});
  ring[0]->Route(250, std::make_unique<ProbeMsg>());
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(app_.deliveries, 1);
  EXPECT_EQ(app_.last_key, 250u);
}

TEST_F(ChordProtocolTest, SuccessorListEnablesFailureRecovery) {
  auto ring = BuildRing({100, 200, 300, 400});
  // Kill 200; 100's stabilization should adopt 300 as successor.
  ring[1]->Fail();
  world_.sim()->RunFor(10 * kMinute);
  EXPECT_EQ(ring[0]->successor().id, 300u);
  // Routing still works, with keys of the dead node now owned by 300.
  int before = app_.deliveries;
  ring[0]->Route(150, std::make_unique<ProbeMsg>());
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(app_.deliveries, before + 1);
}

TEST_F(ChordProtocolTest, FingersPointAtSuccessorsOfFingerStarts) {
  auto ring = BuildRing({100, 8000, 16000, 32000, 48000},
                        /*settle=*/3 * kHour);
  // After plenty of fix_fingers rounds, spot-check a few fingers of node
  // 100: finger i must be the live successor of 100 + 2^i.
  ChordNode* n = ring[0];
  for (int i = 8; i < 16; ++i) {
    NodeRef f = n->finger(i);
    if (!f.valid()) continue;
    Key start = ring_->space().Add(100, 1ULL << i);
    ChordNode* expect = ring_->SuccessorOf(start);
    EXPECT_EQ(f.id, expect->id()) << "finger " << i;
  }
}

TEST_F(ChordProtocolTest, GracefulLeaveRepairsRing) {
  auto ring = BuildRing({100, 200, 300});
  ring[1]->Leave();
  world_.sim()->RunFor(10 * kMinute);
  EXPECT_EQ(ring[0]->successor().id, 300u);
  EXPECT_EQ(ring[2]->successor().id, 100u);
}

TEST_F(ChordProtocolTest, TwoNodeRing) {
  auto ring = BuildRing({1000, 40000});
  EXPECT_EQ(ring[0]->successor().id, 40000u);
  EXPECT_EQ(ring[1]->successor().id, 1000u);
  ring[0]->Route(20000, std::make_unique<ProbeMsg>());
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(app_.deliveries, 1);
}

}  // namespace
}  // namespace flower
