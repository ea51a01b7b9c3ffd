// Experiment API v2 (src/api/): registry resolution, builder defaults,
// result sinks, and trace record/replay equivalence.
#include "api/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/systems.h"
#include "common/hash.h"
#include "test_util.h"
#include "workload/trace.h"

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

SimConfig SmallConfig() {
  SimConfig c = TinyConfig();
  c.duration = 2 * kHour;
  return c;
}

// --- Registry -----------------------------------------------------------------

TEST(SystemRegistryTest, KnowsTheBuiltinSystems) {
  SystemRegistry& registry = SystemRegistry::Instance();
  EXPECT_TRUE(registry.Contains("flower"));
  EXPECT_TRUE(registry.Contains("squirrel"));
  EXPECT_TRUE(registry.Contains("squirrel-home"));
  EXPECT_FALSE(registry.Contains("akamai"));
  EXPECT_GE(registry.Keys().size(), 3u);
}

TEST(SystemRegistryTest, UnknownSystemFailsGracefully) {
  SimConfig c = SmallConfig();
  Result<RunResult> r = Experiment(c).WithSystem("akamai").TryRun();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // The error names the known keys so CLI typos are self-explaining.
  EXPECT_NE(r.status().message().find("flower"), std::string::npos);
}

// Key combinations that once crashed a run (SIGFPE, a segfault, or
// directories that failed to start) must fail fast with INVALID_ARGUMENT
// naming the key. Each override passes SimConfig::Apply on its own.
TEST(ExperimentTest, CrossKeyConfigErrorsAreRejectedBeforeTheRun) {
  struct Case {
    std::vector<std::pair<std::string, std::string>> overrides;
    std::string names;  // the key the message must name
  };
  const std::vector<Case> cases = {
      {{{"num_topology_nodes", "0"}}, "num_topology_nodes"},
      {{{"num_topology_nodes", "50"}}, "num_topology_nodes"},
      {{{"num_topology_nodes", "139"}}, "num_topology_nodes"},
      {{{"num_localities", "300"}}, "num_localities"},
      {{{"locality_id_bits", "2"}}, "num_localities"},
      {{{"scaleup_instances", "4"}}, "scaleup_instances"},
      {{{"scaleup_extra_bits", "1"}, {"scaleup_instances", "3"}},
       "scaleup_instances"},
      {{{"chord_id_bits", "9"}, {"scaleup_extra_bits", "1"}}, "chord_id_bits"},
      {{{"locality_id_bits", "0"}}, "locality_id_bits"},
  };
  for (const Case& c : cases) {
    // The quickstart example's world: 20 websites over 6 localities need
    // 20 x (1 + 6) = 140 nodes.
    SimConfig config;
    config.num_topology_nodes = 1200;
    config.num_websites = 20;
    config.duration = kHour;
    std::string label;
    for (const auto& [key, value] : c.overrides) {
      ASSERT_TRUE(config.Apply(key, value).ok()) << key << "=" << value;
      label += key + "=" + value + " ";
    }
    Result<RunResult> r = Experiment(config).TryRun();
    ASSERT_FALSE(r.ok()) << label;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(r.status().message().find(c.names), std::string::npos)
        << label << ": " << r.status().message();
  }
}

TEST(SystemRegistryTest, EmbedderCanRegisterACustomSystem) {
  SystemRegistry& registry = SystemRegistry::Instance();
  registry.Register("flower-alias", [](const SystemContext& ctx) {
    return std::unique_ptr<CdnSystem>(new FlowerAdapter(ctx));
  });
  RunResult r =
      Experiment(SmallConfig()).WithSystem("flower-alias").Run();
  EXPECT_GT(r.queries_submitted, 100u);
  // The registry is process-global: clean up so later tests see only the
  // builtins.
  registry.Unregister("flower-alias");
  EXPECT_FALSE(registry.Contains("flower-alias"));
}

// --- Builder ------------------------------------------------------------------

TEST(ExperimentTest, ConfigSystemKeyIsTheDefault) {
  SimConfig c = SmallConfig();
  ASSERT_TRUE(c.Apply("system", "squirrel").ok());
  RunResult r = Experiment(c).Run();
  EXPECT_EQ(r.system, "squirrel");
  EXPECT_EQ(r.system_name, "Squirrel");
}

TEST(ExperimentTest, WithSystemOverridesTheConfigKey) {
  SimConfig c = SmallConfig();
  ASSERT_TRUE(c.Apply("system", "squirrel").ok());
  RunResult r = Experiment(c).WithSystem("flower").Run();
  EXPECT_EQ(r.system, "flower");
}

TEST(ExperimentTest, LabelReachesTheResult) {
  RunResult r = Experiment(SmallConfig())
                    .WithSystem("flower")
                    .WithLabel("row-1")
                    .Run();
  EXPECT_EQ(r.label, "row-1");
}

TEST(ExperimentTest, ObserversFireDuringTheRun) {
  SimConfig c = SmallConfig();
  int at_fired = 0;
  int every_fired = 0;
  Experiment(c)
      .WithSystem("flower")
      .At(kHour, [&](const ObserverContext& ctx) {
        ++at_fired;
        EXPECT_EQ(ctx.now, kHour);
        EXPECT_NE(dynamic_cast<FlowerAdapter*>(ctx.system), nullptr);
      })
      .Every(30 * kMinute, [&](const ObserverContext&) { ++every_fired; })
      .Run();
  EXPECT_EQ(at_fired, 1);
  EXPECT_EQ(every_fired, 4);  // 30min..2h inclusive
}

// --- Sinks --------------------------------------------------------------------

TEST(ResultSinkTest, JsonAndCsvSinksCollectASweep) {
  std::string json_path = TempPath("sweep.json");
  std::string csv_path = TempPath("sweep.csv");
  {
    JsonResultSink json(json_path);
    CsvResultSink csv(csv_path);
    SimConfig c = SmallConfig();
    for (const char* system : {"flower", "squirrel"}) {
      Experiment(c)
          .WithSystem(system)
          .WithLabel(system)
          .AddSink(&json)
          .AddSink(&csv)
          .Run();
    }
    EXPECT_EQ(json.records(), 2u);
  }  // destructors flush
  std::string json_text = ReadFile(json_path);
  EXPECT_NE(json_text.find("\"system\":\"flower\""), std::string::npos);
  EXPECT_NE(json_text.find("\"system\":\"squirrel\""), std::string::npos);
  EXPECT_NE(json_text.find("\"hit_ratio_by_window\":["), std::string::npos);
  EXPECT_NE(json_text.find("\"label\":\"squirrel\""), std::string::npos);

  std::string csv_text = ReadFile(csv_path);
  // Header plus one row per run.
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 3);
  EXPECT_NE(csv_text.find("system,label,seed"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

// --- Trace replay (ROADMAP replay-from-file) ----------------------------------

/// Builds the exact trace the synthetic experiment would generate, by
/// reconstructing the deployment the same way Experiment does.
Trace RecordSyntheticTrace(const SimConfig& config) {
  Simulator sim(config.seed);
  Topology topology(config, sim.rng());
  Network network(&sim, &topology);
  Metrics metrics(config);
  FlowerSystem system(config, &sim, &network, &topology, &metrics);
  WorkloadGenerator gen(config, system.deployment(), system.catalog(),
                        Mix64(config.seed ^ 0x5EED));
  return Trace::Record(&gen);
}

TEST(TraceReplayTest, ReplayReproducesTheSyntheticRunOnBothSystems) {
  SimConfig c = SmallConfig();
  std::string path = TempPath("replay_v2.trace");
  Trace trace = RecordSyntheticTrace(c);
  ASSERT_GT(trace.size(), 1000u);
  ASSERT_TRUE(trace.Save(path).ok());

  for (const char* system : {"flower", "squirrel"}) {
    RunResult synthetic = Experiment(c).WithSystem(system).Run();
    RunResult replayed = Experiment(c)
                             .WithSystem(system)
                             .WithWorkload(TraceWorkload(path))
                             .Run();
    EXPECT_EQ(replayed.queries_submitted, synthetic.queries_submitted)
        << system;
    EXPECT_DOUBLE_EQ(replayed.final_hit_ratio, synthetic.final_hit_ratio)
        << system;
    EXPECT_DOUBLE_EQ(replayed.cumulative_hit_ratio,
                     synthetic.cumulative_hit_ratio)
        << system;
    EXPECT_DOUBLE_EQ(replayed.mean_lookup_ms, synthetic.mean_lookup_ms)
        << system;
  }
  std::remove(path.c_str());
}

TEST(TraceReplayTest, ConfigWorkloadTraceKeyDrivesReplay) {
  SimConfig c = SmallConfig();
  std::string path = TempPath("replay_key.trace");
  Trace trace = RecordSyntheticTrace(c);
  ASSERT_TRUE(trace.Save(path).ok());

  RunResult synthetic = Experiment(c).WithSystem("flower").Run();
  ASSERT_TRUE(c.Apply("workload_trace", path).ok());
  RunResult replayed = Experiment(c).WithSystem("flower").Run();
  EXPECT_EQ(replayed.queries_submitted, synthetic.queries_submitted);
  EXPECT_DOUBLE_EQ(replayed.final_hit_ratio, synthetic.final_hit_ratio);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, V1FixtureStillLoadsAndRuns) {
  SimConfig c = SmallConfig();
  Trace trace = RecordSyntheticTrace(c);
  const size_t n = 200;
  ASSERT_GE(trace.size(), n);

  // A v1-format fixture: six fields per event, no size_bits column.
  std::string path = TempPath("fixture_v1.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "flower-trace v1 %zu\n", n);
  for (size_t i = 0; i < n; ++i) {
    const QueryEvent& e = trace.events()[i];
    std::fprintf(f, "%lld %u %zu %llu %u %u\n",
                 static_cast<long long>(e.time), e.website, e.object_rank,
                 static_cast<unsigned long long>(e.object), e.node,
                 e.locality);
  }
  std::fclose(f);

  Result<std::unique_ptr<TraceReplaySource>> source =
      TraceReplaySource::FromFile(path);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value()->size(), n);
  QueryEvent first;
  ASSERT_TRUE(source.value()->Next(&first));
  EXPECT_EQ(first.time, trace.events()[0].time);
  EXPECT_EQ(first.object, trace.events()[0].object);

  RunResult r = Experiment(c)
                    .WithSystem("flower")
                    .WithWorkload(TraceWorkload(path))
                    .Run();
  EXPECT_GT(r.queries_submitted, 0u);
  EXPECT_LE(r.queries_submitted, n);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, MissingTraceFileFailsGracefully) {
  SimConfig c = SmallConfig();
  Result<RunResult> r = Experiment(c)
                            .WithSystem("flower")
                            .WithWorkload(TraceWorkload("/nonexistent.tr"))
                            .TryRun();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --- Squirrel on ContentStore (fair-ablation satellite) -----------------------

TEST(SquirrelCacheTest, BoundedBaselineEvictsAndStillServes) {
  SimConfig c = SmallConfig();
  RunResult unbounded = Experiment(c).WithSystem("squirrel").Run();
  ASSERT_EQ(unbounded.cache_evictions, 0u);

  // Room for four 10 KB objects per node: heavy pressure for a 50-object
  // Zipf catalog.
  c.cache_policy = "lru";
  c.cache_capacity_bytes = 4 * 10 * 1024;
  RunResult bounded = Experiment(c).WithSystem("squirrel").Run();
  EXPECT_GT(bounded.cache_evictions, 0u);
  // Evicted objects get re-requested, so the overlay sees more queries...
  EXPECT_GT(bounded.queries_submitted, unbounded.queries_submitted);
  // ...nearly all of which still resolve (origin fallback; a handful may
  // be in flight when the run ends), at a worse hit ratio.
  EXPECT_GE(bounded.queries_served + 5, bounded.queries_submitted);
  EXPECT_LE(bounded.cumulative_hit_ratio,
            unbounded.cumulative_hit_ratio + 1e-9);
}

}  // namespace
}  // namespace flower
