#include "stats/metrics.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

TEST(MetricsTest, LookupLatencyRecorded) {
  SimConfig c = TinyConfig();
  Metrics m(c);
  m.OnLookupResolved(/*submit=*/100, /*now=*/250, false);
  m.OnLookupResolved(/*submit=*/100, /*now=*/150, true);
  EXPECT_DOUBLE_EQ(m.MeanLookupLatency(), 100.0);
  EXPECT_NEAR(m.lookup_histogram().FractionBelow(100), 0.5, 0.26);
}

TEST(MetricsTest, HitRatioSeries) {
  SimConfig c = TinyConfig();
  c.metrics_window = 100;
  Metrics m(c);
  m.OnServed(10, true, 50);
  m.OnServed(20, false, 300);
  m.OnServed(150, true, 40);
  EXPECT_DOUBLE_EQ(m.hit_series().WindowRatio(0), 0.5);
  EXPECT_DOUBLE_EQ(m.hit_series().WindowRatio(1), 1.0);
  EXPECT_DOUBLE_EQ(m.CumulativeHitRatio(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.FinalHitRatio(1), 1.0);
  EXPECT_EQ(m.queries_served(), 3u);
}

TEST(MetricsTest, TransferDistances) {
  SimConfig c = TinyConfig();
  Metrics m(c);
  m.OnServed(10, true, 50);
  m.OnServed(20, true, 150);
  EXPECT_DOUBLE_EQ(m.MeanTransferDistance(), 100.0);
  EXPECT_NEAR(m.transfer_histogram().FractionBelow(100), 0.5, 0.01);
}

TEST(MetricsTest, ServerHits) {
  SimConfig c = TinyConfig();
  Metrics m(c);
  m.OnServerHit();
  m.OnServerHit();
  EXPECT_EQ(m.server_hits(), 2u);
}

TEST(MetricsTest, BackgroundBpsComputation) {
  SimConfig c = TinyConfig();
  c.num_topology_nodes = 10;
  c.num_localities = 2;
  c.locality_weights = {1, 1};
  TestWorld world(c);

  class NullPeer : public Peer {
   public:
    void HandleMessage(MessagePtr) override {}
  };
  class GossipBits
      : public MessageOf<MessageKind::kProbe, TrafficClass::kGossip> {
   public:
    uint64_t SizeBits() const override { return 1000 - kMessageHeaderBits; }
  };
  NullPeer a, b;
  world.network()->RegisterPeer(&a, 0);
  world.network()->RegisterPeer(&b, 1);
  world.network()->Send(&a, b.address(), std::make_unique<GossipBits>());
  world.sim()->Run();
  // 1000 bits sent + 1000 received over 2 peers in 1 second = 1000 bps each.
  double bps = Metrics::BackgroundBps(*world.network(),
                                      {a.address(), b.address()}, kSecond);
  EXPECT_DOUBLE_EQ(bps, 1000.0);
}

TEST(MetricsTest, StaleRedirectAttributionSumsToTotal) {
  SimConfig c = TinyConfig();
  Metrics m(c);
  m.OnStaleRedirect();  // defaults to the peer-summary channel
  m.OnStaleRedirect(Metrics::StaleSource::kPeerSummary);
  m.OnStaleRedirect(Metrics::StaleSource::kDirIndex);
  EXPECT_EQ(m.stale_redirects(), 3u);
  EXPECT_EQ(m.StaleRedirectsBy(Metrics::StaleSource::kPeerSummary), 2u);
  EXPECT_EQ(m.StaleRedirectsBy(Metrics::StaleSource::kDirIndex), 1u);
}

TEST(MetricsTest, DirectoryIndexCounters) {
  SimConfig c = TinyConfig();
  Metrics m(c);
  EXPECT_EQ(m.dir_index_evictions(), 0u);
  m.OnDirIndexEvictions(3);
  m.OnDirIndexEvictions(2);
  EXPECT_EQ(m.dir_index_evictions(), 5u);
  m.OnDirSummaryFallthrough();
  EXPECT_EQ(m.dir_summary_fallthroughs(), 1u);
  EXPECT_NE(m.Summary(kHour).find("dir_index_evictions=5"),
            std::string::npos);
}

TEST(MetricsTest, SummaryMentionsKeyNumbers) {
  SimConfig c = TinyConfig();
  Metrics m(c);
  m.OnQuerySubmitted(10);
  m.OnServed(20, true, 30);
  std::string s = m.Summary(kHour);
  EXPECT_NE(s.find("queries=1"), std::string::npos);
  EXPECT_NE(s.find("hit_ratio"), std::string::npos);
}

}  // namespace
}  // namespace flower
