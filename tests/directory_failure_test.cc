// Directory dynamicity (paper Sec 5): redirection failures, directory
// crash + replacement race, lost replacement requests, voluntary leave
// with handoff, and silent (bounce-less) crashes detected through
// keepalive-ack suspicion.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "core/flower_system.h"
#include "net/fault_injector.h"
#include "test_util.h"

namespace flower {
namespace {

class DirectoryFailureTest : public ::testing::Test {
 protected:
  DirectoryFailureTest()
      : world_(TinyConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
  }

  std::vector<ContentPeer*> Join(size_t n, WebsiteId ws = 0,
                                 LocalityId loc = 0) {
    const auto& pool = system_.deployment().client_pools[ws][loc];
    std::vector<ContentPeer*> peers;
    for (size_t i = 0; i < n; ++i) {
      system_.SubmitQuery(pool[i], ws,
                          system_.catalog().site(ws).objects[i]);
      world_.sim()->RunFor(kMinute);
      peers.push_back(system_.FindContentPeer(pool[i]));
    }
    return peers;
  }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
};

TEST_F(DirectoryFailureTest, RedirectionFailureRetriesAnotherProvider) {
  auto peers = Join(4);
  ObjectId obj = system_.catalog().site(0).objects[0];  // held by peers[0]
  // Also cache it at peers[2] so a second provider exists.
  system_.SubmitQuery(peers[2]->node(), 0, obj);
  world_.sim()->RunFor(kMinute);

  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  uint64_t failures_before = dir->redirect_failures();
  // Kill one holder; the directory still believes it has the object.
  peers[0]->Fail();
  // A third peer requests the object through the directory.
  uint64_t server_before = metrics_.server_hits();
  system_.SubmitQuery(peers[3]->node(), 0, obj);
  world_.sim()->RunFor(kMinute);
  EXPECT_TRUE(peers[3]->content().Contains(obj));
  EXPECT_EQ(metrics_.server_hits(), server_before);  // rescued by peers[2]
  EXPECT_GE(dir->redirect_failures(), failures_before);
}

TEST_F(DirectoryFailureTest, CrashedDirectoryIsReplacedByContentPeer) {
  auto peers = Join(5);
  // Capture node ids now: the promoted peer object is destroyed by the
  // promotion, so ContentPeer pointers must not be touched afterwards.
  std::vector<NodeId> member_nodes;
  for (ContentPeer* p : peers) member_nodes.push_back(p->node());

  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  Key dir_key = dir->id();
  dir->FailAbruptly();
  EXPECT_EQ(system_.FindDirectory(0, 0), nullptr);

  // Keepalives/pushes fail, peers race to replace (Sec 5.2). Run long
  // enough for keepalive periods to fire.
  world_.sim()->RunFor(4 * world_.config().keepalive_period);

  DirectoryPeer* replacement = system_.FindDirectory(0, 0);
  ASSERT_NE(replacement, nullptr) << "no replacement joined the D-ring";
  EXPECT_EQ(replacement->id(), dir_key);
  EXPECT_EQ(replacement->locality(), 0u);
  EXPECT_GE(system_.promotions(), 1u);
  // The replacement is one of the former content peers.
  bool was_member = false;
  for (NodeId n : member_nodes) {
    if (replacement->node() == n) was_member = true;
  }
  EXPECT_TRUE(was_member);
}

// A replacement request (or its answer) can be lost. The attempt must not
// block the member for good: one keepalive period later the next trigger
// (here a bounced keepalive) tries again.
TEST_F(DirectoryFailureTest, LostReplacementRequestIsRetried) {
  Join(5);
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  Key dir_key = dir->id();
  // Locality 0 is cut off from the others for one keepalive period after
  // the crash. Keepalives to the dead directory stay inside the locality
  // and still bounce, but the replacement request enters the D-ring at a
  // random directory and is answered by the D-ring successor of the dead
  // directory's key, another locality's directory: every member's first
  // attempt, or its answer, disappears.
  FaultPlan plan;
  PartitionWindow cut;
  cut.a.locality = 0;
  cut.b.kind = PartitionSide::Kind::kRest;
  cut.start = world_.sim()->Now();
  cut.end = cut.start + world_.config().keepalive_period + kMinute;
  plan.partitions.push_back(cut);
  FaultInjector injector(plan, world_.sim(), world_.topology());
  world_.network()->AttachFaultInjector(&injector);
  dir->FailAbruptly();
  world_.sim()->RunFor(world_.config().keepalive_period + kMinute);
  world_.network()->AttachFaultInjector(nullptr);
  ASSERT_GT(injector.partition_drops(), 0u);
  ASSERT_EQ(system_.FindDirectory(0, 0), nullptr);

  world_.sim()->RunFor(4 * world_.config().keepalive_period);
  DirectoryPeer* replacement = system_.FindDirectory(0, 0);
  ASSERT_NE(replacement, nullptr) << "members never retried the replacement";
  EXPECT_EQ(replacement->id(), dir_key);
}

TEST_F(DirectoryFailureTest, SystemServesQueriesAfterReplacement) {
  auto peers = Join(5);
  std::vector<NodeId> member_nodes;
  for (ContentPeer* p : peers) member_nodes.push_back(p->node());
  system_.FindDirectory(0, 0)->FailAbruptly();
  world_.sim()->RunFor(4 * world_.config().keepalive_period);
  DirectoryPeer* replacement = system_.FindDirectory(0, 0);
  ASSERT_NE(replacement, nullptr);

  // A fresh object request from a surviving member must still resolve
  // (re-fetch the peer: the promoted one no longer exists as ContentPeer).
  ContentPeer* survivor = nullptr;
  for (NodeId n : member_nodes) {
    if (n == replacement->node()) continue;
    survivor = system_.FindContentPeer(n);
    if (survivor != nullptr && survivor->alive()) break;
  }
  ASSERT_NE(survivor, nullptr);
  ObjectId fresh = system_.catalog().site(0).objects[30];
  system_.SubmitQuery(survivor->node(), 0, fresh);
  world_.sim()->RunFor(kMinute);
  EXPECT_TRUE(survivor->content().Contains(fresh));

  // And a brand-new client can still join through the D-ring.
  const auto& pool = system_.deployment().client_pools[0][0];
  NodeId fresh_client = pool[7];
  system_.SubmitQuery(fresh_client, 0,
                      system_.catalog().site(0).objects[31]);
  world_.sim()->RunFor(kMinute);
  ContentPeer* nc = system_.FindContentPeer(fresh_client);
  ASSERT_NE(nc, nullptr);
  EXPECT_EQ(nc->content().size(), 1u);
}

TEST_F(DirectoryFailureTest, ReplacementRebuildsIndexFromPushes) {
  auto peers = Join(5);
  system_.FindDirectory(0, 0)->FailAbruptly();
  world_.sim()->RunFor(4 * world_.config().keepalive_period);
  DirectoryPeer* replacement = system_.FindDirectory(0, 0);
  ASSERT_NE(replacement, nullptr);
  // After keepalive/push cycles, surviving members re-register.
  world_.sim()->RunFor(4 * world_.config().keepalive_period);
  size_t members_known = replacement->IndexSize();
  EXPECT_GE(members_known, 3u);
}

// A silently crashed directory sends no undeliverable bounces, so the
// bounce-driven failure detector in the keepalive path never fires. The
// keepalive-ack suspicion counter (suspicion_keepalive_misses) must take
// over: members notice the missing acks, declare the directory dead and
// race to replace it, after which queries resolve again.
class SilentDirectoryCrashTest : public ::testing::Test {
 protected:
  static SimConfig SuspicionConfig() {
    SimConfig c = TinyConfig();
    c.suspicion_keepalive_misses = 2;
    return c;
  }

  SilentDirectoryCrashTest()
      : world_(SuspicionConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    FaultPlan plan;
    plan.silent_crash_probability = 1.0;
    injector_ = std::make_unique<FaultInjector>(plan, world_.sim(),
                                                world_.topology());
    world_.network()->AttachFaultInjector(injector_.get());
    system_.Setup();
  }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(SilentDirectoryCrashTest, SuspicionReplacesSilentlyCrashedDirectory) {
  // Join a handful of members the usual way.
  const auto& pool = system_.deployment().client_pools[0][0];
  std::vector<NodeId> member_nodes;
  for (size_t i = 0; i < 5; ++i) {
    system_.SubmitQuery(pool[i], 0, system_.catalog().site(0).objects[i]);
    world_.sim()->RunFor(kMinute);
    member_nodes.push_back(pool[i]);
  }

  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  Key dir_key = dir->id();
  // The directory goes dark: crashed AND silent, so keepalives simply
  // vanish instead of bouncing.
  injector_->MarkSilent(dir->address());
  dir->FailAbruptly();
  ASSERT_EQ(system_.FindDirectory(0, 0), nullptr);

  // Two missed acks plus the re-join round trip; give it a few periods.
  world_.sim()->RunFor(6 * world_.config().keepalive_period);

  EXPECT_GT(injector_->bounces_suppressed(), 0u)
      << "the silent crash must actually have swallowed bounces";
  EXPECT_GT(metrics_.suspicions_confirmed(), 0u)
      << "detection must come from ack suspicion, not bounces";

  DirectoryPeer* replacement = system_.FindDirectory(0, 0);
  ASSERT_NE(replacement, nullptr)
      << "no replacement joined the D-ring after a silent crash";
  EXPECT_EQ(replacement->id(), dir_key);
  EXPECT_GE(system_.promotions(), 1u);

  // Queries from a surviving member resolve again.
  ContentPeer* survivor = nullptr;
  for (NodeId n : member_nodes) {
    if (n == replacement->node()) continue;
    survivor = system_.FindContentPeer(n);
    if (survivor != nullptr && survivor->alive()) break;
  }
  ASSERT_NE(survivor, nullptr);
  ObjectId fresh = system_.catalog().site(0).objects[30];
  system_.SubmitQuery(survivor->node(), 0, fresh);
  world_.sim()->RunFor(kMinute);
  EXPECT_TRUE(survivor->content().Contains(fresh));
}

TEST_F(DirectoryFailureTest, VoluntaryLeaveHandsDirectoryOver) {
  auto peers = Join(5);
  NodeId first_joined = peers[0]->node();  // capture before the handoff
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  size_t index_before = dir->IndexSize();
  ASSERT_GE(index_before, 5u);
  Key dir_key = dir->id();
  dir->LeaveGracefully();
  world_.sim()->RunFor(kMinute);

  DirectoryPeer* heir = system_.FindDirectory(0, 0);
  ASSERT_NE(heir, nullptr);
  EXPECT_EQ(heir->id(), dir_key);
  // The heir received the index (minus its own entry) in the handoff.
  EXPECT_GE(heir->IndexSize(), index_before - 1);
  // The most stable (first-joined) member was chosen (Sec 5.2).
  EXPECT_EQ(heir->node(), first_joined);
}

TEST_F(DirectoryFailureTest, PromotedDirectoryKeepsServingItsContent) {
  auto peers = Join(4);
  NodeId first_joined = peers[0]->node();
  NodeId requester_node = peers[2]->node();
  ObjectId obj = system_.catalog().site(0).objects[0];  // held by peers[0]
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  dir->LeaveGracefully();  // hands off to peers[0], destroying that object
  world_.sim()->RunFor(kMinute);
  DirectoryPeer* heir = system_.FindDirectory(0, 0);
  ASSERT_NE(heir, nullptr);
  ASSERT_EQ(heir->node(), first_joined);
  EXPECT_TRUE(heir->own_content().Contains(obj));

  // Another peer requests that object; the promoted directory serves it
  // from its own content.
  ContentPeer* requester = system_.FindContentPeer(requester_node);
  ASSERT_NE(requester, nullptr);
  uint64_t server_before = metrics_.server_hits();
  system_.SubmitQuery(requester_node, 0, obj);
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.server_hits(), server_before);
  EXPECT_TRUE(requester->content().Contains(obj));
}

TEST_F(DirectoryFailureTest, LateRepliesToAPromotedPeerAreDropped) {
  // A content peer that asked a contact for gossip, or the D-ring for its
  // directory's position, can be promoted before the answer arrives; the
  // answer then reaches the directory at its address.
  auto peers = Join(5);
  system_.FindDirectory(0, 0)->LeaveGracefully();  // promotes peers[0]
  world_.sim()->RunFor(kMinute);
  DirectoryPeer* heir = system_.FindDirectory(0, 0);
  ASSERT_NE(heir, nullptr);
  ASSERT_FALSE(heir->view().empty());
  ContentPeer* contact = system_.FindContentPeer(peers[1]->node());
  ASSERT_NE(contact, nullptr);

  const std::vector<ViewEntry> view_before = heir->view().entries();
  std::vector<std::pair<PeerAddress, std::vector<ObjectSlot>>> index_before;
  for (const auto& [addr, entry] : heir->dir_store().entries()) {
    index_before.emplace_back(addr, entry.objects);
  }

  auto reply = std::make_unique<GossipReplyMsg>();
  reply->sender = contact->address();
  reply->own_summary = ContentSummary::Build(50, 8, 5, [](BloomFilter&) {});
  ViewEntry stranger;
  stranger.addr = 12345;
  reply->view_subset.push_back(stranger);
  reply->dir_pointer = DirectoryPointer{contact->address(), 0};
  auto resp = std::make_unique<JoinDirectoryResp>(heir->id(), true,
                                                  heir->self_ref());
  resp->sender = contact->address();

  const LogLevel level = GlobalLogLevel();
  SetGlobalLogLevel(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  heir->HandleMessage(std::move(reply));
  heir->HandleMessage(std::move(resp));
  const std::string log = testing::internal::GetCapturedStderr();
  SetGlobalLogLevel(level);
  EXPECT_EQ(log, "");

  const std::vector<ViewEntry>& view_after = heir->view().entries();
  ASSERT_EQ(view_after.size(), view_before.size());
  for (size_t i = 0; i < view_before.size(); ++i) {
    EXPECT_EQ(view_after[i].addr, view_before[i].addr);
    EXPECT_EQ(view_after[i].age, view_before[i].age);
    EXPECT_EQ(view_after[i].summary, view_before[i].summary);
  }
  std::vector<std::pair<PeerAddress, std::vector<ObjectSlot>>> index_after;
  for (const auto& [addr, entry] : heir->dir_store().entries()) {
    index_after.emplace_back(addr, entry.objects);
  }
  EXPECT_EQ(index_after, index_before);
}

}  // namespace
}  // namespace flower
