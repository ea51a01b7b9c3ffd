// Shared declarations of the flower_perf benchmark (see README.md): the
// workload table and one measured run of a workload. flower_perf.cc runs
// each measured run in a child process of its own.
#ifndef FLOWER_PERF_PERF_H_
#define FLOWER_PERF_PERF_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"

namespace perf {

struct Workload {
  const char* name;
  /// The run's config; `smoke` shrinks it to well under a second of host
  /// time while keeping every code path of the full run.
  flower::SimConfig (*config)(bool smoke);
};

/// The benchmark's workloads, in the order `run` interleaves them.
const std::vector<Workload>& Workloads();
/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// What one run of one workload measured.
struct Record {
  /// Metric name -> value: every end-to-end metric, the raw counters the
  /// checks need and, for a traced run, every per-layer metric.
  std::map<std::string, double> values;
  /// Digest of every simulated metric and counter. Identical for every
  /// run, timed or traced, of one (workload, seed).
  std::string fingerprint;
  /// The first invariant the run broke; empty when all held.
  std::string failed_check;
};

/// Runs `workload` once in this process; `seed` seeds its query stream.
/// When `trace_path` is non-empty the run is traced: decorators time the
/// public seams and sample the run per slice, the per-layer metrics join
/// the record and the span/slice trace is written to `trace_path`.
Record RunOnce(const Workload& workload, uint64_t seed, bool smoke,
               const std::string& trace_path);

/// The host-speed probe (host_speed.cc): a fixed workload independent of
/// src/, kept warm between passes. The time of a pass made right after a
/// run scales that run's host times to the reference host speed.
class HostProbe {
 public:
  /// Builds the probe's world (about 60 MB) and makes one warm-up pass.
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Host time of one pass.
  double PassSeconds();

 private:
  struct World;
  std::unique_ptr<World> world_;
};

}  // namespace perf

#endif  // FLOWER_PERF_PERF_H_
