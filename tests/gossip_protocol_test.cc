// gossip_protocol selection (ISSUE 6): enum-valued config keys fail fast
// listing their accepted values, gossip_protocol=flower reproduces the
// paper's protocol byte-for-byte, hyparview holds the hit ratio within a
// few points while keeping membership state bounded, recovers from churn,
// and is byte-deterministic across shard counts, executors and reruns.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "test_util.h"

namespace flower {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct SinkOutput {
  std::string text;
  std::string json;
  RunResult result;
};

SinkOutput RunWithSinks(const SimConfig& config, const std::string& tag) {
  SinkOutput out;
  const std::string text_path = TempPath("gossip_" + tag + ".txt");
  const std::string json_path = TempPath("gossip_" + tag + ".json");
  {
    std::FILE* text_file = std::fopen(text_path.c_str(), "w");
    EXPECT_NE(text_file, nullptr);
    TextSummarySink text(text_file);
    JsonResultSink json(json_path);
    out.result = Experiment(config)
                     .WithSystem(config.system)
                     .AddSink(&text)
                     .AddSink(&json)
                     .Run();
    json.Flush();
    std::fclose(text_file);
  }
  out.text = ReadFile(text_path);
  out.json = ReadFile(json_path);
  return out;
}

SimConfig GossipConfig(const std::string& protocol) {
  SimConfig c = TinyConfig();
  c.duration = 1 * kHour;
  c.gossip_protocol = protocol;
  return c;
}

// --- Satellite: enum-valued keys fail fast with the accepted values -----

TEST(GossipConfigTest, UnknownEnumValuesListAccepted) {
  SimConfig c;
  Status s = c.Apply("gossip_protocol", "scamp");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("accepted: flower, hyparview"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(c.gossip_protocol, "flower") << "bad values must not stick";

  s = c.Apply("shard_executor", "fibers");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("accepted: auto, serial"),
            std::string::npos)
      << s.ToString();
  EXPECT_FALSE(c.Apply("shard_executor", "threads").ok());

  s = c.Apply("object_size_distribution", "zipf");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("accepted: fixed, pareto"), std::string::npos)
      << s.ToString();

  s = c.Apply("cache_cost", "hops");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("accepted: uniform, distance"),
            std::string::npos)
      << s.ToString();

  s = c.Apply("cache_policy", "mru");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("accepted: unbounded, lru, lfu, gdsf"),
            std::string::npos)
      << s.ToString();
}

TEST(GossipConfigTest, MembershipKeysApply) {
  SimConfig c;
  EXPECT_EQ(c.gossip_protocol, "flower");
  EXPECT_TRUE(c.Apply("gossip_protocol", "hyparview").ok());
  EXPECT_EQ(c.gossip_protocol, "hyparview");
  EXPECT_TRUE(c.Apply("hyparview_active_size", "7").ok());
  EXPECT_EQ(c.hyparview_active_size, 7);
  EXPECT_TRUE(c.Apply("hyparview_passive_size", "40").ok());
  EXPECT_EQ(c.hyparview_passive_size, 40);
  EXPECT_TRUE(c.Apply("hyparview_shuffle_period", "2min").ok());
  EXPECT_EQ(c.hyparview_shuffle_period, 2 * kMinute);
  EXPECT_TRUE(c.Apply("plumtree_ihave_timeout", "5s").ok());
  EXPECT_EQ(c.plumtree_ihave_timeout, 5 * kSecond);
  EXPECT_TRUE(c.Apply("plumtree_summary_capacity", "128").ok());
  EXPECT_EQ(c.plumtree_summary_capacity, 128);
  EXPECT_TRUE(c.Apply("plumtree_broadcast_threshold", "0.25").ok());
  EXPECT_DOUBLE_EQ(c.plumtree_broadcast_threshold, 0.25);
}

TEST(GossipConfigTest, ToStringMentionsNonDefaultProtocolOnly) {
  SimConfig c;
  EXPECT_EQ(c.ToString().find(" gossip="), std::string::npos)
      << "the default config line must stay byte-identical across PRs";
  ASSERT_TRUE(c.Apply("gossip_protocol", "hyparview").ok());
  EXPECT_NE(c.ToString().find("gossip=hyparview"), std::string::npos);
}

// --- Golden regression: flower output is untouched by the subsystem ----

TEST(GossipProtocolGolden, FlowerOutputHasNoGossipFields) {
  SinkOutput flower = RunWithSinks(GossipConfig("flower"), "flower_default");
  EXPECT_EQ(flower.json.find("gossip_protocol"), std::string::npos)
      << "flower JSON must stay byte-identical to the pre-subsystem runs";
  EXPECT_EQ(flower.text.find("gossip="), std::string::npos);
  EXPECT_EQ(flower.result.gossip_protocol, "flower");

  // Explicitly restating the defaults must not change a byte either.
  SimConfig explicit_cfg = GossipConfig("flower");
  ASSERT_TRUE(explicit_cfg.Apply("gossip_protocol", "flower").ok());
  ASSERT_TRUE(explicit_cfg.Apply("hyparview_active_size", "5").ok());
  ASSERT_TRUE(explicit_cfg.Apply("plumtree_broadcast_threshold", "0.1").ok());
  SinkOutput restated = RunWithSinks(explicit_cfg, "flower_restated");
  EXPECT_EQ(flower.text, restated.text);
  EXPECT_EQ(flower.json, restated.json);
}

// --- End-to-end: hyparview holds the hit ratio with bounded state ------

TEST(GossipProtocolGolden, HyParViewHoldsHitRatioWithBoundedState) {
  SinkOutput flower = RunWithSinks(GossipConfig("flower"), "cmp_flower");
  SinkOutput hpv = RunWithSinks(GossipConfig("hyparview"), "cmp_hyparview");

  EXPECT_EQ(hpv.result.gossip_protocol, "hyparview");
  EXPECT_GT(hpv.result.final_hit_ratio, 0.0);
  EXPECT_NEAR(hpv.result.final_hit_ratio, flower.result.final_hit_ratio, 0.05)
      << "partial views must stay within a few points of full views";

  const SimConfig cfg = GossipConfig("hyparview");
  EXPECT_GT(hpv.result.mean_active_view, 0.0);
  EXPECT_LE(hpv.result.mean_active_view,
            static_cast<double>(cfg.hyparview_active_size));
  EXPECT_LE(hpv.result.mean_passive_view,
            static_cast<double>(cfg.hyparview_passive_size));
  EXPECT_GT(hpv.result.plumtree_eager_deliveries, 0u);

  // The sinks surface the protocol and its counters.
  EXPECT_NE(hpv.text.find("gossip=hyparview"), std::string::npos);
  EXPECT_NE(hpv.json.find("\"gossip_protocol\":\"hyparview\""),
            std::string::npos);
  EXPECT_NE(hpv.json.find("steady_background_bps"), std::string::npos);
}

TEST(GossipProtocolGolden, HyParViewRecoversFromChurn) {
  SimConfig c = GossipConfig("hyparview");
  c.duration = 2 * kHour;
  c.churn_enabled = true;
  c.churn_mean_session = 30 * kMinute;
  c.churn_mean_downtime = 10 * kMinute;
  SinkOutput out = RunWithSinks(c, "churn");
  EXPECT_GT(out.result.churn_failures + out.result.churn_leaves, 0u)
      << "churn must actually churn";
  EXPECT_GT(out.result.final_hit_ratio, 0.5)
      << "partial views must keep resolving queries under churn";
  EXPECT_GT(out.result.mean_active_view, 0.0)
      << "failed neighbors must be replaced from the passive view";
}

// --- Determinism matrix: protocol x shards x executor x rerun ----------

TEST(GossipProtocolGolden, HyParViewIsDeterministicAcrossEngines) {
  SimConfig base = GossipConfig("hyparview");

  SimConfig one = base;
  one.shards = 1;
  SinkOutput s1 = RunWithSinks(one, "det_s1");
  SinkOutput s1b = RunWithSinks(one, "det_s1_again");
  EXPECT_EQ(s1.text, s1b.text);
  EXPECT_EQ(s1.json, s1b.json);

  SimConfig two = base;
  two.shards = 2;
  SinkOutput s2 = RunWithSinks(two, "det_s2");

  SimConfig four = base;
  four.shards = 4;
  SinkOutput s4 = RunWithSinks(four, "det_s4");

  EXPECT_FALSE(s2.json.empty());
  EXPECT_EQ(s2.text, s4.text)
      << "hyparview text output must not depend on the shard count";
  EXPECT_EQ(s2.json, s4.json);
  EXPECT_EQ(s2.result.events_processed, s4.result.events_processed);

  SimConfig serial_cfg = two;
  serial_cfg.shard_executor = "serial";
  SimConfig threads_cfg = two;
  threads_cfg.shard_executor = "auto";
  SinkOutput serial = RunWithSinks(serial_cfg, "det_serial");
  SinkOutput threads = RunWithSinks(threads_cfg, "det_threads");
  EXPECT_EQ(serial.text, threads.text);
  EXPECT_EQ(serial.json, threads.json);

  SinkOutput s2b = RunWithSinks(two, "det_s2_again");
  EXPECT_EQ(s2.text, s2b.text);
  EXPECT_EQ(s2.json, s2b.json);
}

}  // namespace
}  // namespace flower
