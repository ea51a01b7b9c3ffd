// Whole-experiment integration: small versions of the paper's headline
// results must reproduce (who wins, and in which direction) on every run.
#include "api/experiment.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

SimConfig SmallRunConfig() {
  SimConfig c = TinyConfig();
  c.duration = 4 * kHour;
  c.queries_per_second = 2.0;
  c.gossip_period = 10 * kMinute;
  c.metrics_window = 30 * kMinute;
  return c;
}

TEST(RunnerIntegrationTest, FlowerConvergesToHighHitRatio) {
  RunResult r = Experiment(SmallRunConfig()).WithSystem("flower").Run();
  EXPECT_GT(r.queries_submitted, 1000u);
  EXPECT_GT(r.final_hit_ratio, 0.8);
  EXPECT_GT(r.participants, 20u);
  // The hit ratio improves over time (warm-up to converged).
  ASSERT_GE(r.hit_ratio_by_window.size(), 3u);
  EXPECT_GT(r.hit_ratio_by_window.back(),
            r.hit_ratio_by_window.front());
}

TEST(RunnerIntegrationTest, SquirrelConvergesToo) {
  RunResult r = Experiment(SmallRunConfig()).WithSystem("squirrel").Run();
  EXPECT_GT(r.final_hit_ratio, 0.8);
}

TEST(RunnerIntegrationTest, FlowerBeatsSquirrelOnLookupAndTransfer) {
  SimConfig c = SmallRunConfig();
  RunResult flower = Experiment(c).WithSystem("flower").Run();
  RunResult squirrel = Experiment(c).WithSystem("squirrel").Run();
  // The paper's headline: lookup latency much lower (factor ~9), transfer
  // distance lower (factor ~2). Direction must hold at any scale.
  EXPECT_LT(flower.mean_lookup_ms * 2, squirrel.mean_lookup_ms);
  EXPECT_LT(flower.mean_transfer_ms, squirrel.mean_transfer_ms);
  EXPECT_GT(flower.LookupFractionBelow(150),
            squirrel.LookupFractionBelow(150));
  EXPECT_GT(flower.TransferFractionBelow(100),
            squirrel.TransferFractionBelow(100));
}

TEST(RunnerIntegrationTest, BothRunTheSameWorkload) {
  SimConfig c = SmallRunConfig();
  RunResult flower = Experiment(c).WithSystem("flower").Run();
  RunResult squirrel = Experiment(c).WithSystem("squirrel").Run();
  // The deployment and trace derive from the same seed: identical events.
  EXPECT_EQ(flower.queries_submitted + 0, squirrel.queries_submitted)
      << "workloads diverged between the two systems";
}

TEST(RunnerIntegrationTest, OnlyFlowerPaysBackgroundTraffic) {
  SimConfig c = SmallRunConfig();
  RunResult flower = Experiment(c).WithSystem("flower").Run();
  RunResult squirrel = Experiment(c).WithSystem("squirrel").Run();
  EXPECT_GT(flower.background_bps, 1.0);
  EXPECT_DOUBLE_EQ(squirrel.background_bps, 0.0);
}

TEST(RunnerIntegrationTest, DeterministicAcrossRuns) {
  SimConfig c = SmallRunConfig();
  RunResult a = Experiment(c).WithSystem("flower").Run();
  RunResult b = Experiment(c).WithSystem("flower").Run();
  EXPECT_EQ(a.queries_submitted, b.queries_submitted);
  EXPECT_DOUBLE_EQ(a.final_hit_ratio, b.final_hit_ratio);
  EXPECT_DOUBLE_EQ(a.mean_lookup_ms, b.mean_lookup_ms);
  EXPECT_DOUBLE_EQ(a.background_bps, b.background_bps);

  // Under churn, loss and silent crashes, every sink byte repeats too.
  c.churn_enabled = true;
  c.churn_mean_session = 1 * kHour;
  c.fault_loss = "0.02";
  c.fault_silent_crash_probability = 0.5;
  c.query_timeout = 5 * kSecond;
  const SinkBytes first =
      RunWithSinks(Experiment(c).WithSystem("flower"), "deterministic_a");
  const SinkBytes second =
      RunWithSinks(Experiment(c).WithSystem("flower"), "deterministic_b");
  EXPECT_GT(first.result.churn_failures, 0u);
  EXPECT_GT(first.result.injected_drops, 0u);
  EXPECT_GT(first.result.silent_crashes, 0u);
  EXPECT_FALSE(first.json.empty());
  EXPECT_EQ(first.text, second.text);
  EXPECT_EQ(first.json, second.json);
}

TEST(RunnerIntegrationTest, SeedChangesResultsButNotShape) {
  SimConfig c = SmallRunConfig();
  RunResult a = Experiment(c).WithSystem("flower").Run();
  c.seed = 777;
  RunResult b = Experiment(c).WithSystem("flower").Run();
  EXPECT_NE(a.mean_lookup_ms, b.mean_lookup_ms);
  EXPECT_GT(b.final_hit_ratio, 0.8);  // the shape is seed-independent
}

TEST(RunnerIntegrationTest, GossipBandwidthScalesWithGossipLength) {
  // Table 2(a)'s mechanism: quadrupling L_gossip multiplies gossip message
  // size by (1+20)/(1+5) = 3.5, because messages carry 1 + L summaries.
  // Use paper-like summary sizes and overlays large enough that views can
  // actually hold L=20 contacts (tiny summaries would be diluted by fixed
  // per-message headers).
  SimConfig c = SmallRunConfig();
  c.num_objects_per_website = 400;   // summary = 3200 bits
  c.max_content_overlay_size = 40;
  c.gossip_length = 5;
  RunResult small = Experiment(c).WithSystem("flower").Run();
  c.gossip_length = 20;
  RunResult large = Experiment(c).WithSystem("flower").Run();
  EXPECT_GT(large.background_bps, small.background_bps * 1.8);
}

TEST(RunnerIntegrationTest, GossipBandwidthInverseInPeriod) {
  // Table 2(b)'s mechanism: halving the period doubles traffic.
  SimConfig c = SmallRunConfig();
  c.gossip_period = 5 * kMinute;
  RunResult fast = Experiment(c).WithSystem("flower").Run();
  c.gossip_period = 20 * kMinute;
  RunResult slow = Experiment(c).WithSystem("flower").Run();
  EXPECT_GT(fast.background_bps, slow.background_bps * 2.5);
}

TEST(RunnerIntegrationTest, ViewSizeDoesNotAffectBandwidth) {
  // Table 2(c): V_gossip costs memory, not bandwidth.
  SimConfig c = SmallRunConfig();
  c.view_size = 20;
  RunResult small = Experiment(c).WithSystem("flower").Run();
  c.view_size = 70;
  RunResult large = Experiment(c).WithSystem("flower").Run();
  EXPECT_NEAR(large.background_bps / std::max(small.background_bps, 1e-9),
              1.0, 0.2);
}

}  // namespace
}  // namespace flower
