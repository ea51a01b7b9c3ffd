// Experiment API v2 (src/api/): registry resolution, builder defaults,
// result sinks, custom workload sources, and route drops reaching the
// run's result.
#include "api/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/systems.h"
#include "dht/chord_ring.h"
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

SimConfig SmallConfig() {
  SimConfig c = TinyConfig();
  c.duration = 2 * kHour;
  return c;
}

// --- Registry -----------------------------------------------------------------

TEST(SystemRegistryTest, KnowsTheBuiltinSystems) {
  SystemRegistry& registry = SystemRegistry::Instance();
  EXPECT_EQ(registry.Keys(), (std::vector<std::string>{"flower", "squirrel"}));
  EXPECT_FALSE(registry.Contains("akamai"));
}

TEST(SystemRegistryTest, UnknownSystemFailsGracefully) {
  SimConfig c = SmallConfig();
  Result<RunResult> r = Experiment(c).WithSystem("akamai").TryRun();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // The error names the known keys so CLI typos are self-explaining.
  EXPECT_NE(r.status().message().find("flower"), std::string::npos);
}

TEST(SystemRegistryTest, SquirrelHomeKeyIsUnknown) {
  SimConfig c = SmallConfig();
  ASSERT_TRUE(c.Apply("system", "squirrel-home").ok());
  Result<RunResult> r = Experiment(c).TryRun();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("(known: flower|squirrel)"),
            std::string::npos)
      << r.status().message();
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

TEST(ResultSinkTest, JsonSinkCollectsASweep) {
  std::string json_path = TempPath("sweep.json");
  {
    JsonResultSink json(json_path);
    SimConfig c = SmallConfig();
    for (const char* system : {"flower", "squirrel"}) {
      Experiment(c).WithSystem(system).WithLabel(system).AddSink(&json).Run();
    }
    EXPECT_EQ(json.records(), 2u);
  }  // the destructor flushes
  std::string json_text = ReadFile(json_path);
  EXPECT_NE(json_text.find("\"system\":\"flower\""), std::string::npos);
  EXPECT_NE(json_text.find("\"system\":\"squirrel\""), std::string::npos);
  EXPECT_NE(json_text.find("\"hit_ratio_by_window\":["), std::string::npos);
  EXPECT_NE(json_text.find("\"label\":\"squirrel\""), std::string::npos);
  std::remove(json_path.c_str());
}

// --- Custom workload sources --------------------------------------------------

/// Forwards every event of the synthetic source and counts them, the way
/// a timing or tracing decorator wraps the generator.
class CountingSource : public WorkloadSource {
 public:
  CountingSource(const WorkloadEnv& env, uint64_t* count)
      : inner_(env), count_(count) {}
  const std::string& name() const override { return name_; }
  bool Next(QueryEvent* out) override {
    if (!inner_.Next(out)) return false;
    ++*count_;
    return true;
  }

 private:
  SyntheticSource inner_;
  uint64_t* count_;
  std::string name_ = "counting";
};

TEST(WorkloadSourceTest, CustomSourceReproducesTheSyntheticRunOnBothSystems) {
  SimConfig c = SmallConfig();
  for (const char* system : {"flower", "squirrel"}) {
    uint64_t offered = 0;
    RunResult synthetic = Experiment(c).WithSystem(system).Run();
    RunResult wrapped =
        Experiment(c)
            .WithSystem(system)
            .WithWorkload([&offered](const WorkloadEnv& env)
                              -> Result<std::unique_ptr<WorkloadSource>> {
              return std::unique_ptr<WorkloadSource>(
                  new CountingSource(env, &offered));
            })
            .Run();
    EXPECT_GT(offered, 1000u) << system;
    EXPECT_EQ(wrapped.queries_submitted, synthetic.queries_submitted)
        << system;
    EXPECT_EQ(wrapped.events_processed, synthetic.events_processed)
        << system;
    EXPECT_DOUBLE_EQ(wrapped.final_hit_ratio, synthetic.final_hit_ratio)
        << system;
    EXPECT_DOUBLE_EQ(wrapped.cumulative_hit_ratio,
                     synthetic.cumulative_hit_ratio)
        << system;
    EXPECT_DOUBLE_EQ(wrapped.mean_lookup_ms, synthetic.mean_lookup_ms)
        << system;
  }
}

// --- Route drops --------------------------------------------------------------

class ProbeMsg
    : public MessageOf<MessageKind::kProbe, TrafficClass::kControl> {
 public:
  uint64_t SizeBits() const override { return 64; }
};

class NoQueries : public WorkloadSource {
 public:
  const std::string& name() const override { return name_; }
  bool Next(QueryEvent*) override { return false; }

 private:
  std::string name_ = "none";
};

/// Flower plus a two-node side ring built with max_route_hops = 0 on the
/// run's Metrics. Setup routes one message that needs one hop, so the
/// node that receives it drops it.
class ZeroHopRingSystem : public FlowerAdapter {
 public:
  explicit ZeroHopRingSystem(const SystemContext& ctx)
      : FlowerAdapter(ctx), ring_(ZeroHops(), ctx.metrics) {
    for (Key id : {100, 200}) {
      nodes_.push_back(
          std::make_unique<ChordNode>(ctx.sim, ctx.network, &ring_, id));
    }
  }

  void Setup() override {
    FlowerAdapter::Setup();
    // The run submits no queries, so no client claims these pool nodes.
    const std::vector<NodeId>& pool = deployment().client_pools[0][0];
    for (size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->Activate(pool[i]);
      ASSERT_TRUE(nodes_[i]->JoinStructural());
    }
    nodes_[0]->Route(150, std::make_unique<ProbeMsg>());  // node 200 owns it
  }

 private:
  static ChordConfig ZeroHops() {
    ChordConfig cc;
    cc.id_bits = 16;
    cc.max_route_hops = 0;
    return cc;
  }

  ChordRing ring_;
  std::vector<std::unique_ptr<ChordNode>> nodes_;
};

TEST(RouteDropTest, ZeroHopRingDropReachesTheRunResult) {
  RunResult r =
      Experiment(SmallConfig())
          .WithSystem([](const SystemContext& ctx) {
            return std::unique_ptr<CdnSystem>(new ZeroHopRingSystem(ctx));
          })
          .WithWorkload([](const WorkloadEnv&)
                            -> Result<std::unique_ptr<WorkloadSource>> {
            return std::unique_ptr<WorkloadSource>(new NoQueries);
          })
          .Run();
  EXPECT_EQ(r.routes_dropped, 1u);
  EXPECT_NE(FormatRunSummary(r).find(" route_drops=1"), std::string::npos)
      << FormatRunSummary(r);

  // Runs that drop nothing keep the summary line unchanged.
  RunResult plain = Experiment(SmallConfig()).WithSystem("flower").Run();
  EXPECT_EQ(plain.routes_dropped, 0u);
  EXPECT_EQ(FormatRunSummary(plain).find("route_drops"), std::string::npos);
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
