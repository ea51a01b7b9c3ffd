#include "workload/workload.h"

#include <map>

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "test_util.h"

namespace flower {
namespace {

struct WorkloadFixture {
  explicit WorkloadFixture(double queries_per_second = 2.0)
      : config(WithRate(queries_per_second)), rng(1), topo(config, &rng) {
    DRingIdScheme scheme(config.chord_id_bits, config.locality_id_bits, 0);
    catalog = std::make_unique<WebsiteCatalog>(config, scheme);
    Rng plan_rng(2);
    deployment = Deployment::Plan(config, topo, &plan_rng);
  }
  static SimConfig WithRate(double queries_per_second) {
    SimConfig c = TinyConfig();
    c.queries_per_second = queries_per_second;
    return c;
  }

  SimConfig config;
  Rng rng;
  Topology topo;
  std::unique_ptr<WebsiteCatalog> catalog;
  Deployment deployment;
};

TEST(WorkloadTest, EventsAreTimeOrderedAndBounded) {
  WorkloadFixture f;
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  QueryEvent ev;
  SimTime prev = -1;
  while (gen.Next(&ev)) {
    EXPECT_GT(ev.time, prev);
    EXPECT_LT(ev.time, f.config.duration);
    prev = ev.time;
  }
  EXPECT_GT(gen.events_generated(), 0u);
}

TEST(WorkloadTest, RateMatchesConfiguration) {
  WorkloadFixture f;
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  auto trace = gen.GenerateAll();
  double expected = f.config.queries_per_second *
                    static_cast<double>(f.config.duration) / kSecond;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, expected * 0.1);
}

TEST(WorkloadTest, OriginatorsComeFromTheRightPool) {
  WorkloadFixture f;
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  QueryEvent ev;
  while (gen.Next(&ev)) {
    ASSERT_LT(ev.website,
              static_cast<WebsiteId>(f.deployment.client_pools.size()));
    const auto& pool = f.deployment.client_pools[ev.website][ev.locality];
    EXPECT_NE(std::find(pool.begin(), pool.end(), ev.node), pool.end());
    EXPECT_EQ(f.deployment.detected_locality[ev.node], ev.locality);
  }
}

TEST(WorkloadTest, ObjectsMatchCatalogRanks) {
  WorkloadFixture f;
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  QueryEvent ev;
  for (int i = 0; i < 1000 && gen.Next(&ev); ++i) {
    EXPECT_EQ(ev.object, f.catalog->site(ev.website).objects[ev.object_rank]);
  }
}

TEST(WorkloadTest, ZipfSkewsTowardLowRanks) {
  WorkloadFixture f;
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  std::map<size_t, int> rank_counts;
  QueryEvent ev;
  while (gen.Next(&ev)) ++rank_counts[ev.object_rank];
  EXPECT_GT(rank_counts[0], rank_counts[10] * 2);
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  WorkloadFixture f;
  WorkloadGenerator g1(f.config, f.deployment, *f.catalog, 7);
  WorkloadGenerator g2(f.config, f.deployment, *f.catalog, 7);
  QueryEvent a, b;
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(g1.Next(&a), g2.Next(&b));
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.object, b.object);
  }
}

TEST(WorkloadTest, StreamsMatchRecordedGoldens) {
  // Count, last time and sums of (time, rank, node) over the whole 2 h
  // stream, recorded before the gap got its end-of-run check: bounding
  // the gap changed no draw.
  struct Golden {
    double qps;
    size_t n;
    SimTime last;
    uint64_t time_sum, rank_sum, node_sum;
  };
  for (const Golden& g : {Golden{2.0, 14232, 7199568, 51478714460ull,
                                 184263, 1994662},
                          Golden{0.01, 68, 7198197, 245741689, 920, 8794}}) {
    WorkloadFixture f(g.qps);
    WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
    std::vector<QueryEvent> trace = gen.GenerateAll();
    uint64_t time_sum = 0, rank_sum = 0, node_sum = 0;
    for (const QueryEvent& ev : trace) {
      time_sum += static_cast<uint64_t>(ev.time);
      rank_sum += ev.object_rank;
      node_sum += ev.node;
    }
    ASSERT_EQ(trace.size(), g.n) << "qps=" << g.qps;
    EXPECT_EQ(trace.back().time, g.last) << "qps=" << g.qps;
    EXPECT_EQ(time_sum, g.time_sum) << "qps=" << g.qps;
    EXPECT_EQ(rank_sum, g.rank_sum) << "qps=" << g.qps;
    EXPECT_EQ(node_sum, g.node_sum) << "qps=" << g.qps;
  }
}

TEST(WorkloadTest, GapPastTheRunEndsTheStream) {
  // A mean gap of 1e303 ms draws gaps far beyond SimTime's range; the
  // stream must end instead of casting one (an overflow that scheduled
  // the next query in the past).
  WorkloadFixture f(1e-300);
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  QueryEvent ev;
  EXPECT_FALSE(gen.Next(&ev));
  EXPECT_FALSE(gen.Next(&ev));  // and stays ended
  EXPECT_EQ(gen.events_generated(), 0u);
}

TEST(WorkloadTest, TinyRateRunsToTheEndWithoutQueries) {
  // Under a Debug build this tripped Simulator::ScheduleAt's assert.
  SimConfig c = TinyConfig();
  c.duration = 1 * kHour;
  c.queries_per_second = 1e-300;
  Result<RunResult> result = Experiment(c).TryRun();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().queries_submitted, 0u);
}

TEST(WorkloadTest, LocalityWeightsShapeQueryVolume) {
  WorkloadFixture f;
  WorkloadGenerator gen(f.config, f.deployment, *f.catalog, 7);
  std::vector<int> per_loc(static_cast<size_t>(f.config.num_localities), 0);
  QueryEvent ev;
  while (gen.Next(&ev)) ++per_loc[ev.locality];
  // TinyConfig weights are {0.4, 0.35, 0.25}: volumes must be ordered.
  EXPECT_GT(per_loc[0], per_loc[2]);
}

}  // namespace
}  // namespace flower
