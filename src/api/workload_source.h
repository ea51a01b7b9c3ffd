// Experiment API v2, workload side: a WorkloadSource produces the query
// events an Experiment drives through its system, one at a time (the
// driver schedules them lazily so the event heap stays small).
//
// Two built-in sources: SyntheticSource wraps the paper's Poisson/Zipf
// generator (Sec 6.1); TraceReplaySource replays a recorded trace file —
// v1, or v2 with its unread size column — against any system, so
// modified systems can be measured under bit-identical workloads.
#ifndef FLOWERCDN_API_WORKLOAD_SOURCE_H_
#define FLOWERCDN_API_WORKLOAD_SOURCE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace flower {

/// What a workload source may draw from: the run's config plus the
/// system's client population and website catalog. Pointers outlive the
/// source.
struct WorkloadEnv {
  const SimConfig* config = nullptr;
  const Deployment* deployment = nullptr;
  const WebsiteCatalog* catalog = nullptr;
};

class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Display name for summaries/logs ("synthetic", "trace:<path>").
  virtual const std::string& name() const = 0;

  /// Produces the next query event; returns false when exhausted.
  virtual bool Next(QueryEvent* out) = 0;
};

/// Builds a source once the system (and thus deployment/catalog) exists.
using WorkloadFactory =
    std::function<Result<std::unique_ptr<WorkloadSource>>(
        const WorkloadEnv&)>;

/// The paper's synthetic workload (WorkloadGenerator), seeded exactly as
/// the v1 runner seeded it, so runs reproduce bit-identically.
class SyntheticSource : public WorkloadSource {
 public:
  explicit SyntheticSource(const WorkloadEnv& env);

  const std::string& name() const override { return name_; }
  bool Next(QueryEvent* out) override { return generator_.Next(out); }

  WorkloadGenerator* generator() { return &generator_; }

 private:
  WorkloadGenerator generator_;
  std::string name_ = "synthetic";
};

/// Replays a recorded trace in event order. Consumes no RNG: replaying the
/// trace of a synthetic run reproduces that run bit-identically.
class TraceReplaySource : public WorkloadSource {
 public:
  explicit TraceReplaySource(Trace trace, std::string name = "trace");

  /// Loads a v1/v2 trace file (workload/trace.h formats).
  static Result<std::unique_ptr<TraceReplaySource>> FromFile(
      const std::string& path);

  const std::string& name() const override { return name_; }
  bool Next(QueryEvent* out) override;

  size_t size() const { return trace_.size(); }

 private:
  Trace trace_;
  size_t next_ = 0;
  std::string name_;
};

/// Factory for the synthetic generator (the default workload).
WorkloadFactory SyntheticWorkload();

/// Factory replaying the trace file at `path` (ROADMAP replay-from-file).
WorkloadFactory TraceWorkload(std::string path);

/// Factory replaying an in-memory trace.
WorkloadFactory ReplayWorkload(Trace trace);

}  // namespace flower

#endif  // FLOWERCDN_API_WORKLOAD_SOURCE_H_
