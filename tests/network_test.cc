#include "net/network.h"

#include <gtest/gtest.h>

namespace flower {
namespace {

class TestMsg : public Message {
 public:
  explicit TestMsg(uint64_t bits = 100,
                   TrafficClass cls = TrafficClass::kControl)
      : Message(MessageKind::kProbe, cls), bits_(bits) {}
  uint64_t SizeBits() const override { return bits_; }

 private:
  uint64_t bits_;
};

class RecordingPeer : public Peer {
 public:
  void HandleMessage(MessagePtr msg) override {
    ++received;
    last_sender = msg->sender;
  }
  void HandleUndeliverable(PeerAddress dest, MessagePtr msg) override {
    ++undeliverable;
    last_failed_dest = dest;
    (void)msg;
  }
  int received = 0;
  int undeliverable = 0;
  PeerAddress last_sender = kInvalidAddress;
  PeerAddress last_failed_dest = kInvalidAddress;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1) {
    config_.num_topology_nodes = 50;
    config_.num_localities = 2;
    config_.locality_weights = {1, 1};
    topo_ = std::make_unique<Topology>(config_, sim_.rng());
    net_ = std::make_unique<Network>(&sim_, topo_.get());
  }

  SimConfig config_;
  Simulator sim_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<Network> net_;
};

TEST_F(NetworkTest, DeliversAfterTopologyLatency) {
  RecordingPeer a, b;
  net_->RegisterPeer(&a, 0);
  net_->RegisterPeer(&b, 1);
  net_->Send(&a, b.address(), std::make_unique<TestMsg>());
  SimTime expected = topo_->Latency(0, 1);
  sim_.RunUntil(expected - 1);
  EXPECT_EQ(b.received, 0);
  sim_.RunUntil(expected);
  EXPECT_EQ(b.received, 1);
  EXPECT_EQ(b.last_sender, a.address());
}

TEST_F(NetworkTest, UndeliverableBouncesAfterRoundTrip) {
  RecordingPeer a;
  net_->RegisterPeer(&a, 0);
  net_->Send(&a, /*nonexistent=*/7, std::make_unique<TestMsg>());
  sim_.Run();
  EXPECT_EQ(a.undeliverable, 1);
  EXPECT_EQ(a.last_failed_dest, 7u);
}

TEST_F(NetworkTest, UnregisteredMidFlightBounces) {
  RecordingPeer a, b;
  net_->RegisterPeer(&a, 0);
  net_->RegisterPeer(&b, 1);
  net_->Send(&a, b.address(), std::make_unique<TestMsg>());
  net_->UnregisterPeer(&b);  // dies while the message is in flight
  sim_.Run();
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(a.undeliverable, 1);
}

TEST_F(NetworkTest, TrafficAccountingPerClass) {
  // Every class counts in its total; only gossip, push and keepalive
  // count in the per-node background bits, at the sender and again at
  // the receiver.
  RecordingPeer a, b, c;
  net_->RegisterPeer(&a, 0);
  net_->RegisterPeer(&b, 1);
  net_->RegisterPeer(&c, 2);
  net_->Send(&a, b.address(),
             std::make_unique<TestMsg>(100, TrafficClass::kGossip));
  net_->Send(&a, b.address(),
             std::make_unique<TestMsg>(200, TrafficClass::kPush));
  net_->Send(&b, c.address(),
             std::make_unique<TestMsg>(300, TrafficClass::kKeepalive));
  net_->Send(&a, c.address(),
             std::make_unique<TestMsg>(400, TrafficClass::kQuery));
  net_->Send(&c, a.address(),
             std::make_unique<TestMsg>(500, TrafficClass::kTransfer));
  net_->Send(&c, b.address(),
             std::make_unique<TestMsg>(600, TrafficClass::kControl));
  sim_.Run();
  const uint64_t h = kMessageHeaderBits;
  EXPECT_EQ(net_->BackgroundBits({a.address()}), (100 + h) + (200 + h));
  EXPECT_EQ(net_->BackgroundBits({b.address()}),
            (100 + h) + (200 + h) + (300 + h));
  EXPECT_EQ(net_->BackgroundBits({c.address()}), 300 + h);
  EXPECT_EQ(net_->TotalBits(TrafficClass::kGossip), 100 + h);
  EXPECT_EQ(net_->TotalBits(TrafficClass::kPush), 200 + h);
  EXPECT_EQ(net_->TotalBits(TrafficClass::kKeepalive), 300 + h);
  EXPECT_EQ(net_->TotalBits(TrafficClass::kQuery), 400 + h);
  EXPECT_EQ(net_->TotalBits(TrafficClass::kTransfer), 500 + h);
  EXPECT_EQ(net_->TotalBits(TrafficClass::kControl), 600 + h);
}

TEST_F(NetworkTest, BackgroundBitsOverPeers) {
  RecordingPeer a, b;
  net_->RegisterPeer(&a, 0);
  net_->RegisterPeer(&b, 1);
  net_->Send(&a, b.address(),
             std::make_unique<TestMsg>(100, TrafficClass::kGossip));
  net_->Send(&a, b.address(),
             std::make_unique<TestMsg>(200, TrafficClass::kQuery));
  sim_.Run();
  // Counted once as sent at a and once as received at b; the query is
  // not background.
  EXPECT_EQ(net_->BackgroundBits({a.address(), b.address()}),
            2 * (100 + kMessageHeaderBits));
  EXPECT_EQ(net_->BackgroundBits({a.address()}), 100 + kMessageHeaderBits);
  // Addresses past the topology count nothing.
  EXPECT_EQ(net_->BackgroundBits({1000}), 0u);
  EXPECT_EQ(net_->BackgroundBits({}), 0u);
}

TEST_F(NetworkTest, BackgroundBitsSkipLostAndBouncedDeliveries) {
  // A message to an offline peer counts at the sender only.
  RecordingPeer a;
  net_->RegisterPeer(&a, 0);
  net_->Send(&a, /*nonexistent=*/3,
             std::make_unique<TestMsg>(100, TrafficClass::kPush));
  sim_.Run();
  EXPECT_EQ(a.undeliverable, 1);
  EXPECT_EQ(net_->BackgroundBits({a.address(), 3}), 100 + kMessageHeaderBits);
}

TEST_F(NetworkTest, IsAliveTracksRegistration) {
  RecordingPeer a;
  EXPECT_FALSE(net_->IsAlive(0));
  net_->RegisterPeer(&a, 0);
  EXPECT_TRUE(net_->IsAlive(0));
  net_->UnregisterPeer(&a);
  EXPECT_FALSE(net_->IsAlive(0));
}

TEST_F(NetworkTest, SelfSendDeliversImmediately) {
  RecordingPeer a;
  net_->RegisterPeer(&a, 0);
  net_->Send(&a, a.address(), std::make_unique<TestMsg>());
  sim_.Run();
  EXPECT_EQ(a.received, 1);
  EXPECT_EQ(sim_.Now(), 0);  // zero latency to self
}

TEST_F(NetworkTest, MessageCounters) {
  RecordingPeer a, b;
  net_->RegisterPeer(&a, 0);
  net_->RegisterPeer(&b, 1);
  net_->Send(&a, b.address(), std::make_unique<TestMsg>());
  net_->Send(&a, 30, std::make_unique<TestMsg>());
  sim_.Run();
  EXPECT_EQ(net_->messages_sent(), 2u);
  EXPECT_EQ(net_->messages_undeliverable(), 1u);
}

}  // namespace
}  // namespace flower
