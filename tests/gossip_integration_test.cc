// Gossip protocol integration (paper Algorithm 4/5): view construction,
// summary dissemination, peer-direct query resolution, keepalives and
// T_dead expiry.
#include <gtest/gtest.h>

#include "core/flower_system.h"
#include "test_util.h"

namespace flower {
namespace {

class GossipIntegrationTest : public ::testing::Test {
 protected:
  GossipIntegrationTest()
      : world_(TinyConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
  }

  /// Makes `n` peers of (website 0, locality 0) members, each fetching one
  /// distinct object.
  std::vector<ContentPeer*> Join(size_t n) {
    const auto& pool = system_.deployment().client_pools[0][0];
    std::vector<ContentPeer*> peers;
    for (size_t i = 0; i < n; ++i) {
      system_.SubmitQuery(pool[i], 0,
                          system_.catalog().site(0).objects[i]);
      world_.sim()->RunFor(kMinute);
      peers.push_back(system_.FindContentPeer(pool[i]));
    }
    return peers;
  }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
};

TEST_F(GossipIntegrationTest, ViewsFillThroughGossip) {
  auto peers = Join(8);
  world_.sim()->RunFor(10 * world_.config().gossip_period);
  for (ContentPeer* p : peers) {
    EXPECT_GE(p->view().size(), 4u) << "peer " << p->address();
  }
}

TEST_F(GossipIntegrationTest, SummariesSpreadThroughGossip) {
  auto peers = Join(6);
  world_.sim()->RunFor(10 * world_.config().gossip_period);
  // Most view entries should carry summaries by now.
  size_t with_summary = 0, total = 0;
  for (ContentPeer* p : peers) {
    for (const ViewEntry& e : p->view().entries()) {
      ++total;
      if (e.summary != nullptr) ++with_summary;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(with_summary * 2, total);  // more than half
}

TEST_F(GossipIntegrationTest, PeerDirectQueryViaViewSummary) {
  auto peers = Join(6);
  world_.sim()->RunFor(10 * world_.config().gossip_period);

  // Peer 1 requests the object peer 0 fetched. With summaries spread, it
  // should be served without the origin server.
  uint64_t server_before = metrics_.server_hits();
  ObjectId obj = system_.catalog().site(0).objects[0];
  if (peers[1]->content().Contains(obj)) GTEST_SKIP();
  system_.SubmitQuery(peers[1]->node(), 0, obj);
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.server_hits(), server_before);
  EXPECT_TRUE(peers[1]->content().Contains(obj));
}

TEST_F(GossipIntegrationTest, ViewAgesIncreaseWithoutContact) {
  auto peers = Join(2);
  // With only two members, each gossips with the other; ages stay low.
  world_.sim()->RunFor(4 * world_.config().gossip_period);
  const ViewEntry* e = peers[0]->view().Find(peers[1]->address());
  ASSERT_NE(e, nullptr);
  EXPECT_LE(e->age, 2);
}

TEST_F(GossipIntegrationTest, KeepalivesKeepEntriesAliveThroughTdead) {
  auto peers = Join(3);
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  // Run far beyond T_dead * T_gossip; keepalives must prevent expiry.
  world_.sim()->RunFor(world_.config().dead_age_limit *
                       world_.config().gossip_period * 3);
  for (ContentPeer* p : peers) {
    EXPECT_TRUE(dir->IndexHas(p->address()));
  }
}

TEST_F(GossipIntegrationTest, SilentPeerExpiresFromIndexAfterTdead) {
  auto peers = Join(3);
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  ASSERT_TRUE(dir->IndexHas(peers[0]->address()));
  PeerAddress dead_addr = peers[0]->address();
  peers[0]->Fail();  // crashes silently
  world_.sim()->RunFor((world_.config().dead_age_limit + 2) *
                       world_.config().gossip_period);
  EXPECT_FALSE(dir->IndexHas(dead_addr));
}

TEST_F(GossipIntegrationTest, GracefulLeaveRemovesEntryImmediately) {
  auto peers = Join(3);
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  PeerAddress addr = peers[1]->address();
  ASSERT_TRUE(dir->IndexHas(addr));
  peers[1]->Leave();
  world_.sim()->RunFor(kMinute);
  EXPECT_FALSE(dir->IndexHas(addr));
}

TEST_F(GossipIntegrationTest, DeadViewContactsArePurgedOnGossipFailure) {
  auto peers = Join(5);
  world_.sim()->RunFor(6 * world_.config().gossip_period);
  PeerAddress dead = peers[4]->address();
  peers[4]->Fail();
  // Purging needs direct-contact failures plus the view age limit, since
  // exchanged subsets can re-introduce the dead entry for a while.
  world_.sim()->RunFor((world_.config().view_age_limit + 4) *
                       world_.config().gossip_period);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(peers[i]->view().Contains(dead))
        << "peer " << i << " still references the dead contact, age="
        << peers[i]->view().Find(dead)->age;
  }
}

TEST_F(GossipIntegrationTest, BackgroundTrafficIsOnlyGossipPushKeepalive) {
  Join(6);
  world_.sim()->RunFor(6 * world_.config().gossip_period);
  EXPECT_GT(world_.network()->TotalBits(TrafficClass::kGossip), 0u);
  EXPECT_GT(world_.network()->TotalBits(TrafficClass::kPush), 0u);
  EXPECT_GT(world_.network()->TotalBits(TrafficClass::kKeepalive), 0u);
}

}  // namespace
}  // namespace flower
