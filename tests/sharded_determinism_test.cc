// Golden determinism tests for the sharded simulation engine
// (ISSUE 5 acceptance criteria):
//
//  - shards=1 runs the untouched serial engine: its results equal a run
//    that never heard of the shards key (the exact pre-refactor values
//    are pinned separately by
//    DirIndexIntegrationTest.UnboundedIndexReproducesQuickstartMetrics).
//  - For shards >= 2, text and JSON sink output is byte-identical
//    across shard counts, across repeated runs, and across the serial
//    and threaded lane executors.
//  - Stress: the same holds with churn enabled (cooperative executor),
//    including equal events_processed totals.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "api/sweep.h"
#include "api/systems.h"
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

/// One run over `config` with text + JSON sinks attached, of the system
/// `factory` builds (default: the config's registry key).
SinkOutput RunWithSinks(const SimConfig& config, const std::string& tag,
                        SystemFactory factory = nullptr) {
  SinkOutput out;
  const std::string text_path = TempPath("shard_" + tag + ".txt");
  const std::string json_path = TempPath("shard_" + tag + ".json");
  {
    std::FILE* text_file = std::fopen(text_path.c_str(), "w");
    EXPECT_NE(text_file, nullptr);
    TextSummarySink text(text_file);
    JsonResultSink json(json_path);
    Experiment experiment(config);
    if (factory) {
      experiment.WithSystem(std::move(factory));
    } else {
      experiment.WithSystem(config.system);
    }
    out.result = experiment.AddSink(&text).AddSink(&json).Run();
    json.Flush();
    std::fclose(text_file);
  }
  out.text = ReadFile(text_path);
  out.json = ReadFile(json_path);
  return out;
}

SimConfig ShardConfig() {
  SimConfig c = TinyConfig();
  c.duration = 1 * kHour;
  return c;
}

TEST(ShardedDeterminismGolden, OutputIdenticalAcrossShardCounts) {
  SimConfig base = ShardConfig();

  SimConfig two = base;
  two.shards = 2;
  SinkOutput s2 = RunWithSinks(two, "s2");

  SimConfig four = base;
  four.shards = 4;
  SinkOutput s4 = RunWithSinks(four, "s4");

  EXPECT_FALSE(s2.json.empty());
  EXPECT_EQ(s2.text, s4.text) << "text sink must not depend on the shard "
                                 "count";
  EXPECT_EQ(s2.json, s4.json) << "JSON sink must not depend on the shard "
                                 "count";
  EXPECT_EQ(s2.result.events_processed, s4.result.events_processed);
  EXPECT_EQ(s2.result.events_by_lane, s4.result.events_by_lane);
  EXPECT_EQ(s2.result.sim_lanes, base.num_localities);

  // Run-to-run determinism at a fixed shard count.
  SinkOutput again = RunWithSinks(two, "s2_again");
  EXPECT_EQ(s2.text, again.text);
  EXPECT_EQ(s2.json, again.json);
}

/// Flower with its lane threads refused: the Experiment runs its lanes
/// on the cooperative executor, in lane order on one thread.
class CooperativeFlower : public FlowerAdapter {
 public:
  using FlowerAdapter::FlowerAdapter;
  bool SupportsParallelShards() const override { return false; }
};

TEST(ShardedDeterminismGolden, ExecutorsProduceIdenticalBytes) {
  SimConfig config = ShardConfig();
  config.shards = 3;
  ASSERT_FALSE(config.churn_enabled) << "churn would refuse threads too";
  SinkOutput serial = RunWithSinks(
      config, "exec_serial", [](const SystemContext& ctx) {
        return std::unique_ptr<CdnSystem>(new CooperativeFlower(ctx));
      });
  SinkOutput threads = RunWithSinks(config, "exec_threads");

  EXPECT_EQ(serial.text, threads.text);
  EXPECT_EQ(serial.json, threads.json);
  EXPECT_EQ(serial.result.events_processed, threads.result.events_processed);
}

TEST(ShardedDeterminismGolden, ShardsOneIsTheSerialEngine) {
  // shards=1 must not even enter sharded mode: results, sink bytes and
  // engine counters equal a run with the key untouched, and no lane
  // fields appear in the output.
  SimConfig plain = ShardConfig();
  SinkOutput reference = RunWithSinks(plain, "plain");

  SimConfig one = plain;
  one.shards = 1;
  SinkOutput explicit_one = RunWithSinks(one, "one");

  EXPECT_EQ(reference.text, explicit_one.text);
  EXPECT_EQ(reference.json, explicit_one.json);
  EXPECT_EQ(explicit_one.result.sim_lanes, 0);
  EXPECT_TRUE(explicit_one.result.events_by_lane.empty());
  EXPECT_EQ(reference.json.find("sim_lanes"), std::string::npos);
  EXPECT_EQ(reference.text.find("lanes="), std::string::npos);
}

// Satellite: cross-shard determinism under churn. Same seed at
// shards=1,2,4 with churn; the sharded runs must byte-match
// each other and report equal events_processed; shards=1 must still be
// the serial engine (different schedule, so only its self-consistency is
// asserted here).
TEST(ShardedDeterminismGolden, ChurnStress) {
  SimConfig base = ShardConfig();
  base.duration = 2 * kHour;
  base.churn_enabled = true;
  base.churn_mean_session = 30 * kMinute;
  base.churn_mean_downtime = 10 * kMinute;

  SimConfig one = base;
  one.shards = 1;
  SinkOutput s1 = RunWithSinks(one, "churn_s1");
  SinkOutput s1b = RunWithSinks(one, "churn_s1_again");
  EXPECT_EQ(s1.json, s1b.json) << "serial churn run must be reproducible";
  EXPECT_GT(s1.result.churn_failures + s1.result.churn_leaves, 0u);

  SimConfig two = base;
  two.shards = 2;
  SinkOutput s2 = RunWithSinks(two, "churn_s2");

  SimConfig four = base;
  four.shards = 4;
  SinkOutput s4 = RunWithSinks(four, "churn_s4");

  EXPECT_EQ(s2.text, s4.text);
  EXPECT_EQ(s2.json, s4.json);
  EXPECT_EQ(s2.result.events_processed, s4.result.events_processed);
  EXPECT_EQ(s2.result.events_by_lane, s4.result.events_by_lane);
  EXPECT_GT(s2.result.churn_failures + s2.result.churn_leaves, 0u)
      << "sharded churn must actually churn";

  // Repeatability of the sharded churn schedule.
  SinkOutput s2b = RunWithSinks(two, "churn_s2_again");
  EXPECT_EQ(s2.json, s2b.json);
}

// Cross-shard determinism with the fault-injection layer fully lit up —
// loss, a partition window, silent crashes under churn, plus query
// timeouts and keepalive-ack suspicion. All injector draws come from
// per-lane derived streams, so shards=2 and shards=4 must stay
// byte-identical across reruns; shards=1 is the serial engine (own
// schedule, asserted self-consistent only).
TEST(ShardedDeterminismGolden, FaultInjectionStress) {
  SimConfig base = ShardConfig();
  base.duration = 2 * kHour;
  base.churn_enabled = true;
  base.churn_mean_session = 30 * kMinute;
  base.churn_mean_downtime = 10 * kMinute;
  base.fault_loss = "0.05";
  base.fault_partitions = "0|*@30min-45min";
  base.fault_silent_crash_probability = 0.5;
  base.query_timeout = 5 * kSecond;
  base.query_max_retries = 4;
  base.suspicion_keepalive_misses = 2;

  SimConfig one = base;
  one.shards = 1;
  SinkOutput s1 = RunWithSinks(one, "fault_s1");
  SinkOutput s1b = RunWithSinks(one, "fault_s1_again");
  EXPECT_EQ(s1.json, s1b.json) << "serial faulty run must be reproducible";
  EXPECT_GT(s1.result.injected_drops, 0u);

  SimConfig two = base;
  two.shards = 2;
  SinkOutput s2 = RunWithSinks(two, "fault_s2");

  SimConfig four = base;
  four.shards = 4;
  SinkOutput s4 = RunWithSinks(four, "fault_s4");

  EXPECT_EQ(s2.text, s4.text);
  EXPECT_EQ(s2.json, s4.json);
  EXPECT_EQ(s2.result.events_processed, s4.result.events_processed);
  EXPECT_EQ(s2.result.events_by_lane, s4.result.events_by_lane);
  EXPECT_GT(s2.result.injected_drops, 0u) << "loss must actually fire";
  EXPECT_GT(s2.result.partition_drops, 0u) << "the window must cut traffic";
  EXPECT_GT(s2.result.queries_timed_out, 0u);

  // Rerun determinism of the sharded faulty schedule.
  SinkOutput s2b = RunWithSinks(two, "fault_s2_again");
  EXPECT_EQ(s2.json, s2b.json);
}

TEST(ShardedDeterminismGolden, SquirrelShardsAreDeterministic) {
  SimConfig base = ShardConfig();
  base.system = "squirrel";

  SimConfig two = base;
  two.shards = 2;
  SinkOutput s2 = RunWithSinks(two, "squirrel_s2");

  SimConfig four = base;
  four.shards = 4;
  SinkOutput s4 = RunWithSinks(four, "squirrel_s4");

  EXPECT_EQ(s2.text, s4.text);
  EXPECT_EQ(s2.json, s4.json);
  EXPECT_EQ(s2.result.events_processed, s4.result.events_processed);
}

// The flyweight peer-state layer at scale: 16k peers exercise the dense
// PeerTable (slot compaction under the churn below) and interned object
// slots far past the population every other suite touches; sink bytes
// must still be independent of the shard count and the run must stay
// reproducible.
TEST(ShardedDeterminismGolden, SixteenThousandPeerStress) {
  SimConfig base = TinyConfig();
  base.num_topology_nodes = 16000;
  base.num_localities = 6;
  base.locality_weights = {};  // uniform across the six localities
  base.max_content_overlay_size = 800;
  base.queries_per_second = 40.0;
  base.duration = 30 * kMinute;
  base.churn_enabled = true;
  base.churn_mean_session = 20 * kMinute;
  base.churn_mean_downtime = 10 * kMinute;
  base.metrics_max_points = 64;

  SimConfig two = base;
  two.shards = 2;
  SinkOutput s2 = RunWithSinks(two, "peers16k_s2");

  SimConfig four = base;
  four.shards = 4;
  SinkOutput s4 = RunWithSinks(four, "peers16k_s4");

  EXPECT_FALSE(s2.json.empty());
  EXPECT_EQ(s2.text, s4.text);
  EXPECT_EQ(s2.json, s4.json);
  EXPECT_EQ(s2.result.events_processed, s4.result.events_processed);
  EXPECT_EQ(s2.result.events_by_lane, s4.result.events_by_lane);
  EXPECT_GT(s2.result.participants, 1000u)
      << "population never reached flyweight-relevant scale";

  SinkOutput again = RunWithSinks(two, "peers16k_s2_again");
  EXPECT_EQ(s2.json, again.json);
}

TEST(ShardedDeterminismGolden, ShardsComposeWithParallelSweeps) {
  // shards=N inside jobs=M: every sweep point runs its own sharded
  // simulator on a pool worker; sink bytes must match the serial sweep.
  SimConfig base = ShardConfig();
  base.shards = 2;

  auto run_sweep = [&base](int jobs, const std::string& tag) {
    SweepRunner sweep(jobs);
    for (uint64_t seed : {42u, 43u, 44u}) {
      SimConfig c = base;
      c.seed = seed;
      sweep.Add(c, "flower", "seed=" + std::to_string(seed));
    }
    JsonResultSink json(TempPath("shard_sweep_" + tag + ".json"));
    Result<std::vector<RunResult>> results = sweep.Run({&json});
    EXPECT_TRUE(results.ok());
    json.Flush();
    return ReadFile(TempPath("shard_sweep_" + tag + ".json"));
  };

  std::string serial = run_sweep(1, "serial");
  std::string parallel = run_sweep(3, "jobs3");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace flower
