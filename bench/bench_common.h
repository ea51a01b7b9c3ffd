// Shared scaffolding for the experiment drivers that regenerate the
// paper's tables and figures. Every driver funnels its runs through
// bench::Driver, which wraps the Experiment builder (src/api/) and owns
// the optional machine-readable sinks, so `./bench_fig6 quick json`
// writes BENCH_fig6.json next to the usual text tables.
#ifndef FLOWERCDN_BENCH_BENCH_COMMON_H_
#define FLOWERCDN_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/sweep.h"
#include "common/config.h"

namespace flower {
namespace bench {

/// The paper's evaluation setup (Table 1 + Sec 6.1): 5000-node topology,
/// k = 6 localities, 100 websites on the D-ring, 6 active, 500 objects per
/// site, S_co = 100, 6 queries/s, 24 h, T_gossip = 30 min, L_gossip = 10,
/// V_gossip = 50, push threshold 0.1.
SimConfig PaperConfig();

/// Scaled-down setup for quick sanity runs (pass "quick" as argv[1]).
SimConfig QuickConfig();

/// Per-driver harness. Parses the CLI — optional leading "quick", then
/// any mix of key=value config overrides, the sink token `json[=PATH]`
/// (default BENCH_<name>.json) and `jobs=N` (parallel sweep workers,
/// default 1) — and runs experiments through the SweepRunner with the
/// parsed sinks attached.
///
/// Sweeps are two-phase: Enqueue every point first, then RunQueued once.
/// Points run on a thread pool when jobs > 1, but results and sink
/// output always come back in submission order, so a jobs=N run is
/// byte-identical to the serial one.
class Driver {
 public:
  /// Exits with a message on bad input.
  Driver(std::string name, int argc, char** argv);
  ~Driver();

  const SimConfig& config() const { return config_; }
  SimConfig& config() { return config_; }
  int jobs() const { return sweep_.jobs(); }

  /// Prints a header naming the experiment and the base config.
  void PrintHeader(const std::string& title) const;

  /// Queues one sweep point for RunQueued(); returns its result index.
  size_t Enqueue(const SimConfig& config, const std::string& system,
                 const std::string& label = std::string());

  /// Runs every queued point (in parallel when jobs=N was given),
  /// commits results to the shared sinks in submission order, and
  /// returns them in that order. Exits with a message on a failed run.
  std::vector<RunResult> RunQueued();

  /// Runs one experiment over `config` immediately (a one-point sweep),
  /// with the shared sinks attached.
  RunResult Run(const SimConfig& config, const std::string& system,
                const std::string& label = std::string());

  /// Same, over the driver's base config.
  RunResult Run(const std::string& system,
                const std::string& label = std::string());

 private:
  std::string name_;
  SimConfig config_;
  SweepRunner sweep_{1};
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

/// Prints a paper-vs-measured comparison line.
void PrintComparison(const std::string& what, const std::string& paper,
                     const std::string& measured);

std::string Fmt(double v, int decimals = 3);

}  // namespace bench
}  // namespace flower

#endif  // FLOWERCDN_BENCH_BENCH_COMMON_H_
