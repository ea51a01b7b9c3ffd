// Protocol-level unit tests of ContentPeer, driving it with hand-crafted
// messages instead of the whole system.
#include "core/content_peer.h"

#include <gtest/gtest.h>

#include "core/flower_system.h"
#include "test_util.h"

namespace flower {
namespace {

class RecordingPeer : public Peer {
 public:
  void HandleMessage(MessagePtr msg) override {
    Message* raw = msg.get();
    if (auto* s = dynamic_cast<ServeMsg*>(raw)) {
      msg.release();
      serves.emplace_back(s);
      return;
    }
    if (auto* nf = dynamic_cast<NotFoundMsg*>(raw)) {
      msg.release();
      not_founds.emplace_back(nf);
      return;
    }
    ++other;
  }
  std::vector<std::unique_ptr<ServeMsg>> serves;
  std::vector<std::unique_ptr<NotFoundMsg>> not_founds;
  int other = 0;
};

class ContentPeerUnitTest : public ::testing::Test {
 protected:
  ContentPeerUnitTest()
      : world_(TinyConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
    // Make one real member peer: first query joins it.
    const auto& pool = system_.deployment().client_pools[0][0];
    member_node_ = pool[0];
    held_ = system_.catalog().site(0).objects[0];
    system_.SubmitQuery(member_node_, 0, held_);
    world_.sim()->RunFor(kMinute);
    member_ = system_.FindContentPeer(member_node_);
    // A bare recording peer at another pool node of the same locality.
    prober_node_ = pool[1];
    world_.network()->RegisterPeer(&prober_, prober_node_);
  }

  std::unique_ptr<FlowerQueryMsg> DirectQuery(ObjectId obj, bool member,
                                              LocalityId loc) {
    auto q = std::make_unique<FlowerQueryMsg>(
        0, system_.catalog().site(0).dring_hash, obj, prober_.address(),
        loc, world_.sim()->Now(), QueryStage::kPeerDirect);
    q->client_is_member = member;
    return q;
  }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
  NodeId member_node_ = 0;
  NodeId prober_node_ = 0;
  ObjectId held_ = 0;
  ContentPeer* member_ = nullptr;
  RecordingPeer prober_;
};

TEST_F(ContentPeerUnitTest, ServesHeldObjectDirectly) {
  world_.network()->Send(&prober_, member_->address(),
                         DirectQuery(held_, /*member=*/true, 0));
  world_.sim()->RunFor(kMinute);
  ASSERT_EQ(prober_.serves.size(), 1u);
  EXPECT_EQ(prober_.serves[0]->object, held_);
  EXPECT_FALSE(prober_.serves[0]->from_server);
  EXPECT_EQ(prober_.serves[0]->provider, member_->address());
  // A member requester gets no view seed.
  EXPECT_TRUE(prober_.serves[0]->view_subset.empty());
}

TEST_F(ContentPeerUnitTest, SeedsViewOnlyForSameLocalityNonMembers) {
  world_.network()->Send(&prober_, member_->address(),
                         DirectQuery(held_, /*member=*/false, 0));
  world_.sim()->RunFor(kMinute);
  ASSERT_EQ(prober_.serves.size(), 1u);
  // Non-member of the same locality: view subset present (at least the
  // provider's own entry with a summary).
  ASSERT_FALSE(prober_.serves[0]->view_subset.empty());
  bool has_provider_summary = false;
  for (const ViewEntry& e : prober_.serves[0]->view_subset) {
    if (e.addr == member_->address() && e.summary != nullptr) {
      has_provider_summary = true;
    }
  }
  EXPECT_TRUE(has_provider_summary);
}

TEST_F(ContentPeerUnitTest, NoViewSeedAcrossLocalities) {
  world_.network()->Send(&prober_, member_->address(),
                         DirectQuery(held_, /*member=*/false,
                                     /*loc=*/1));  // different locality
  world_.sim()->RunFor(kMinute);
  ASSERT_EQ(prober_.serves.size(), 1u);
  EXPECT_TRUE(prober_.serves[0]->view_subset.empty())
      << "views must not leak across overlays (paper Sec 4.2)";
}

TEST_F(ContentPeerUnitTest, RepliesNotFoundForMissingObject) {
  ObjectId missing = system_.catalog().site(0).objects[49];
  world_.network()->Send(&prober_, member_->address(),
                         DirectQuery(missing, true, 0));
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(prober_.serves.size(), 0u);
  ASSERT_EQ(prober_.not_founds.size(), 1u);
  EXPECT_EQ(prober_.not_founds[0]->object, missing);
  // Peer-direct misses carry no echoed query (the requester retries).
  EXPECT_EQ(prober_.not_founds[0]->query, nullptr);
}

TEST_F(ContentPeerUnitTest, DirRedirectMissEchoesQueryBack) {
  ObjectId missing = system_.catalog().site(0).objects[48];
  auto q = DirectQuery(missing, true, 0);
  q->stage = QueryStage::kDirRedirect;
  world_.network()->Send(&prober_, member_->address(), std::move(q));
  world_.sim()->RunFor(kMinute);
  ASSERT_EQ(prober_.not_founds.size(), 1u);
  ASSERT_NE(prober_.not_founds[0]->query, nullptr)
      << "directories need the query context to retry (Sec 5.1)";
  EXPECT_EQ(prober_.not_founds[0]->query->object, missing);
}

TEST_F(ContentPeerUnitTest, DuplicateRequestsCoalesce) {
  ObjectId obj = system_.catalog().site(0).objects[10];
  uint64_t before = metrics_.queries_submitted();
  member_->RequestObject(obj);
  member_->RequestObject(obj);  // while the first is in flight
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.queries_submitted(), before + 1);
  EXPECT_TRUE(member_->content().Contains(obj));
}

TEST_F(ContentPeerUnitTest, FailReleasesTheNetworkAddress) {
  PeerAddress addr = member_->address();
  ASSERT_TRUE(world_.network()->IsAlive(addr));
  member_->Fail();
  EXPECT_FALSE(world_.network()->IsAlive(addr));
  // A new peer can take over the node (rejoin after churn).
  RecordingPeer reuse;
  world_.network()->RegisterPeer(&reuse, member_node_);
  EXPECT_TRUE(world_.network()->IsAlive(addr));
  world_.network()->UnregisterPeer(&reuse);
}

TEST_F(ContentPeerUnitTest, PromotionStateCarriesContentAndView) {
  // Add a second object, then promote.
  ObjectId obj = system_.catalog().site(0).objects[11];
  system_.SubmitQuery(member_node_, 0, obj);
  world_.sim()->RunFor(kMinute);
  ASSERT_EQ(member_->content().size(), 2u);
  ContentPeer::PromotionState state = member_->PrepareForPromotion();
  EXPECT_EQ(state.content.size(), 2u);
  EXPECT_TRUE(state.content.Contains(held_));
  EXPECT_FALSE(world_.network()->IsAlive(member_node_));
}

}  // namespace
}  // namespace flower
