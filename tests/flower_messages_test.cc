// Wire-size accounting of every protocol message. The background-traffic
// results (Table 2) depend on these sizes, so they are pinned by tests:
// a gossip message carries (1 + L_gossip) summaries, which is what makes
// bandwidth scale linearly in L and inversely in T.
#include "core/flower_messages.h"

#include <set>

#include <gtest/gtest.h>

namespace flower {
namespace {

SummaryRef MakeSummary() {
  // Paper sizing: 500 objects x 8 bits.
  return ContentSummary::Build(500, 8, 5, [](BloomFilter&) {});
}

ViewEntry EntryWithSummary(PeerAddress a) {
  ViewEntry e;
  e.addr = a;
  e.age = 1;
  e.summary = MakeSummary();
  return e;
}

TEST(FlowerMessagesTest, QuerySizeIsSmallAndConstant) {
  FlowerQueryMsg q(0, 1, 42, 7, 0, 100, QueryStage::kViaDRing);
  EXPECT_LT(q.SizeBits(), 400u);
  EXPECT_EQ(q.traffic_class(), TrafficClass::kQuery);
}

TEST(FlowerMessagesTest, GossipMessageCarriesOnePlusLSummaries) {
  GossipRequestMsg msg;
  msg.own_summary = MakeSummary();
  const int lgossip = 10;
  for (int i = 0; i < lgossip; ++i) {
    msg.view_subset.push_back(EntryWithSummary(static_cast<PeerAddress>(i)));
  }
  // (1 + L) * 4000 summary bits dominate; entries add addr+age.
  uint64_t summaries = (1 + lgossip) * 4000ull;
  uint64_t entry_overhead = lgossip * (kAddressBits + kAgeBits);
  uint64_t dir_pointer = kAddressBits + kAgeBits;
  EXPECT_EQ(msg.SizeBits(), summaries + entry_overhead + dir_pointer);
  EXPECT_EQ(msg.traffic_class(), TrafficClass::kGossip);
}

TEST(FlowerMessagesTest, GossipReplySymmetricWithRequest) {
  GossipRequestMsg req;
  GossipReplyMsg reply;
  req.own_summary = MakeSummary();
  reply.own_summary = MakeSummary();
  req.view_subset.push_back(EntryWithSummary(1));
  reply.view_subset.push_back(EntryWithSummary(2));
  EXPECT_EQ(req.SizeBits(), reply.SizeBits());
}

TEST(FlowerMessagesTest, GossipSizeScalesLinearlyInL) {
  auto size_for = [](int l) {
    GossipRequestMsg m;
    m.own_summary = MakeSummary();
    for (int i = 0; i < l; ++i) {
      m.view_subset.push_back(EntryWithSummary(static_cast<PeerAddress>(i)));
    }
    return m.SizeBits();
  };
  uint64_t s5 = size_for(5);
  uint64_t s10 = size_for(10);
  uint64_t s20 = size_for(20);
  // Ratios behind Table 2(a): (1+20)/(1+5) = 3.5x.
  EXPECT_NEAR(static_cast<double>(s20) / static_cast<double>(s5),
              21.0 / 6.0, 0.05);
  EXPECT_NEAR(static_cast<double>(s10) / static_cast<double>(s5),
              11.0 / 6.0, 0.05);
}

TEST(FlowerMessagesTest, PushSizeScalesWithDelta) {
  PushMsg small, large;
  small.added = {1, 2};
  large.added.assign(50, 7);
  EXPECT_LT(small.SizeBits(), large.SizeBits());
  EXPECT_EQ(large.SizeBits(), 50 * kObjectIdBits + 16);
  EXPECT_EQ(small.traffic_class(), TrafficClass::kPush);
}

TEST(FlowerMessagesTest, KeepaliveIsMinimal) {
  KeepaliveMsg ka;
  EXPECT_EQ(ka.SizeBits(), 0u);
  EXPECT_EQ(ka.traffic_class(), TrafficClass::kKeepalive);
}

TEST(FlowerMessagesTest, ServeCarriesObjectPayload) {
  ServeMsg s(42, 0, 1, 9, false, 100, /*object_size_bits=*/80000);
  EXPECT_GE(s.SizeBits(), 80000u);
  EXPECT_EQ(s.traffic_class(), TrafficClass::kTransfer);
  s.view_subset.push_back(EntryWithSummary(3));
  EXPECT_GE(s.SizeBits(), 84000u);
}

TEST(FlowerMessagesTest, DirectorySummaryCountsAsPushTraffic) {
  DirectorySummaryMsg m(1, 0, 77, MakeSummary());
  EXPECT_EQ(m.traffic_class(), TrafficClass::kPush);
  EXPECT_GE(m.SizeBits(), 4000u);
}

TEST(FlowerMessagesTest, HandoffSizeCoversIndexAndSummaries) {
  DirectoryHandoffMsg h;
  DirectoryHandoffMsg::IndexEntryWire e;
  e.addr = 1;
  e.age = 0;
  e.joined_at = 0;
  e.objects = {1, 2, 3};
  h.entries.push_back(e);
  h.summaries.push_back({77, 5, MakeSummary()});
  EXPECT_GE(h.SizeBits(),
            3 * kObjectIdBits + kAddressBits + kAgeBits + 4000);
  EXPECT_EQ(h.traffic_class(), TrafficClass::kControl);
}

TEST(FlowerMessagesTest, ControlMessagesAreNotBackgroundTraffic) {
  // Background traffic = gossip + push + keepalive; these must be control.
  JoinDirectoryReq jr(1, 2);
  JoinDirectoryResp js(1, true, NodeRef{});
  WelcomeMsg w(1, 0);
  LeaveMsg leave;
  EXPECT_EQ(jr.traffic_class(), TrafficClass::kControl);
  EXPECT_EQ(js.traffic_class(), TrafficClass::kControl);
  EXPECT_EQ(w.traffic_class(), TrafficClass::kControl);
  EXPECT_EQ(leave.traffic_class(), TrafficClass::kControl);
}

TEST(FlowerMessagesTest, RouteEnvelopeInheritsPayloadClass) {
  auto q = std::make_unique<FlowerQueryMsg>(0, 1, 42, 7, 0, 100,
                                            QueryStage::kViaDRing);
  uint64_t qbits = q->SizeBits();
  RouteMsg route(123, std::move(q));
  EXPECT_EQ(route.traffic_class(), TrafficClass::kQuery);
  EXPECT_GT(route.SizeBits(), qbits);
}

TEST(FlowerMessagesTest, EveryTypeHasItsKindAndTrafficClass) {
  auto query = [] {
    return std::make_unique<FlowerQueryMsg>(0, 1, 42, 7, 0, 100,
                                            QueryStage::kViaDRing);
  };
  using K = MessageKind;
  using C = TrafficClass;
  struct Row {
    const char* name;
    MessagePtr msg;
    MessageKind kind;
    TrafficClass cls;
  };
  Row rows[] = {
      // Chord substrate; the envelope accounts as its payload.
      {"RouteMsg(query)", std::make_unique<RouteMsg>(1, query()), K::kRoute,
       C::kQuery},
      {"RouteMsg(join)",
       std::make_unique<RouteMsg>(1, std::make_unique<JoinDirectoryReq>(1, 2)),
       K::kRoute, C::kControl},
      // Flower-CDN protocols.
      {"FlowerQueryMsg", query(), K::kFlowerQuery, C::kQuery},
      {"ServeMsg", std::make_unique<ServeMsg>(42, 0, 1, 9, false, 100, 800),
       K::kServe, C::kTransfer},
      {"NotFoundMsg",
       std::make_unique<NotFoundMsg>(42, 1, QueryStage::kDirRedirect),
       K::kNotFound, C::kQuery},
      {"WelcomeMsg", std::make_unique<WelcomeMsg>(1, 0), K::kWelcome,
       C::kControl},
      {"GossipRequestMsg", std::make_unique<GossipRequestMsg>(),
       K::kGossipRequest, C::kGossip},
      {"GossipReplyMsg", std::make_unique<GossipReplyMsg>(), K::kGossipReply,
       C::kGossip},
      {"PushMsg", std::make_unique<PushMsg>(), K::kPush, C::kPush},
      {"KeepaliveMsg", std::make_unique<KeepaliveMsg>(), K::kKeepalive,
       C::kKeepalive},
      {"KeepaliveAckMsg", std::make_unique<KeepaliveAckMsg>(),
       K::kKeepaliveAck, C::kKeepalive},
      {"LeaveMsg", std::make_unique<LeaveMsg>(), K::kLeave, C::kControl},
      {"DirectorySummaryMsg",
       std::make_unique<DirectorySummaryMsg>(1, 0, 77, MakeSummary()),
       K::kDirectorySummary, C::kPush},
      {"DirectoryHandoffMsg", std::make_unique<DirectoryHandoffMsg>(),
       K::kDirectoryHandoff, C::kControl},
      {"JoinDirectoryReq", std::make_unique<JoinDirectoryReq>(1, 2),
       K::kJoinDirectoryReq, C::kControl},
      {"JoinDirectoryResp",
       std::make_unique<JoinDirectoryResp>(1, true, NodeRef{}),
       K::kJoinDirectoryResp, C::kControl},
  };
  std::set<MessageKind> kinds;
  for (const Row& row : rows) {
    EXPECT_EQ(row.msg->type(), row.kind) << row.name;
    EXPECT_EQ(row.msg->traffic_class(), row.cls) << row.name;
    kinds.insert(row.kind);
  }
  // Every wire kind (all kinds before kProbe) has a row, one kind each.
  EXPECT_EQ(kinds.size(), static_cast<size_t>(MessageKind::kProbe));
  EXPECT_EQ(kinds.count(MessageKind::kProbe), 0u);
}

#ifndef NDEBUG
// A handler that takes a message as the wrong type aborts in Debug builds.
TEST(FlowerMessagesDeathTest, MessageCastAssertsTheKind) {
  EXPECT_DEATH(MessageCast<ServeMsg>(std::make_unique<KeepaliveMsg>()),
               "kKind");
}
#endif

}  // namespace
}  // namespace flower
