// Parallel sweep execution for the Experiment API: queue independent
// experiment points, run them on a small thread pool, and commit results
// to sinks in submission order.
//
// Every point is a self-contained (config, system, label) triple; each
// runs with its own Simulator, RNG, Topology and Metrics, so a point's
// result is a pure function of its config and does not depend on which
// thread ran it or in what order. Sinks are only touched from the
// calling thread, after the pool joins, in submission order — text and
// JSON output of a jobs=N sweep is therefore byte-identical to the
// serial (jobs=1) run.
#ifndef FLOWERCDN_API_SWEEP_H_
#define FLOWERCDN_API_SWEEP_H_

#include <string>
#include <vector>

#include "api/result_sink.h"
#include "api/run_result.h"
#include "common/config.h"

namespace flower {

class SweepRunner {
 public:
  /// jobs <= 1 runs points serially in the calling thread (but through
  /// the same run-then-commit path as the parallel case).
  explicit SweepRunner(int jobs = 1);

  /// Queues one experiment point; returns its index (results come back
  /// in the same order).
  size_t Add(SimConfig config, std::string system,
             std::string label = std::string());

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  int jobs() const { return jobs_; }

  /// Runs every queued point, commits each result to every sink in
  /// submission order, clears the queue, and returns the results (also
  /// in submission order). On failure (unknown system, unreadable
  /// trace), returns the first error in submission order; results of
  /// points submitted before the failing one are still committed.
  Result<std::vector<RunResult>> Run(
      const std::vector<ResultSink*>& sinks);

 private:
  struct Point {
    SimConfig config;
    std::string system;
    std::string label;
  };

  int jobs_;
  std::vector<Point> points_;
};

}  // namespace flower

#endif  // FLOWERCDN_API_SWEEP_H_
