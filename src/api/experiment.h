// Experiment API v2: the builder that wires a CdnSystem, a WorkloadSource
// and any number of ResultSinks into one simulated run.
//
//   SimConfig config;
//   RunResult r = Experiment(config)
//                     .WithSystem("flower")          // registry key
//                     .AddSink(&json_sink)
//                     .Run();
//
// WithSystem falls back to `config.system`, so a plain
// Experiment(config).Run() honors a `system=squirrel` command-line
// override; WithWorkload falls back to the synthetic generator.
//
// This replaced the v1 free function RunExperiment(config, SystemKind);
// the deprecated workload/runner.h shim is gone — this builder is the
// only experiment entry point.
#ifndef FLOWERCDN_API_EXPERIMENT_H_
#define FLOWERCDN_API_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "api/cdn_system.h"
#include "api/result_sink.h"
#include "api/run_result.h"
#include "api/workload_source.h"
#include "common/config.h"

namespace flower {

/// Read-only view handed to observers during a run.
struct ObserverContext {
  SimTime now = 0;
  Simulator* sim = nullptr;
  const SimConfig* config = nullptr;
  const Metrics* metrics = nullptr;
  CdnSystem* system = nullptr;
  const Network* network = nullptr;
};

using ObserverFn = std::function<void(const ObserverContext&)>;

class Experiment {
 public:
  explicit Experiment(SimConfig config);

  /// Selects the system by registry key ("flower", "squirrel", or
  /// anything registered). Default: config.system.
  Experiment& WithSystem(std::string registry_key);

  /// Selects the system by explicit factory (for custom/unregistered
  /// systems). `key`/`name` label the result.
  Experiment& WithSystem(SystemFactory factory);

  /// Selects the workload. Default: SyntheticWorkload().
  Experiment& WithWorkload(WorkloadFactory factory);

  /// Labels this run in sink output ("L=5", "capacity=64KB", ...).
  Experiment& WithLabel(std::string label);

  /// Attaches a sink (non-owning; one sink may collect many runs).
  Experiment& AddSink(ResultSink* sink);

  /// Invokes `fn` once at simulated time `t` during the run.
  Experiment& At(SimTime t, ObserverFn fn);

  /// Invokes `fn` every `period` of simulated time during the run.
  /// Observers do not change the result: their firings and timers stay
  /// out of events_processed and events_cancelled.
  Experiment& Every(SimTime period, ObserverFn fn);

  /// Runs the experiment and feeds every attached sink. Returns the
  /// error (unknown system, malformed fault spec, a world the config
  /// cannot build) instead of a result.
  Result<RunResult> TryRun();

  /// Convenience for drivers: TryRun, but print the error and exit(1) on
  /// configuration mistakes.
  RunResult Run();

 private:
  SimConfig config_;
  std::string system_key_;
  SystemFactory system_factory_;
  WorkloadFactory workload_factory_;
  std::string label_;
  std::vector<ResultSink*> sinks_;
  std::vector<std::pair<SimTime, ObserverFn>> at_observers_;
  std::vector<std::pair<SimTime, ObserverFn>> every_observers_;
};

}  // namespace flower

#endif  // FLOWERCDN_API_EXPERIMENT_H_
