// Experiment API v2, workload side: a WorkloadSource produces the query
// events an Experiment drives through its system, one at a time (the
// driver schedules them lazily so the event heap stays small).
//
// The built-in source, SyntheticSource, wraps the paper's Poisson/Zipf
// generator (Sec 6.1). Embedders hand Experiment::WithWorkload a factory
// for their own source, for example one that wraps SyntheticSource to
// time or observe each event.
#ifndef FLOWERCDN_API_WORKLOAD_SOURCE_H_
#define FLOWERCDN_API_WORKLOAD_SOURCE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
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

  /// Display name for summaries/logs ("synthetic").
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

 private:
  WorkloadGenerator generator_;
  std::string name_ = "synthetic";
};

/// Factory for the synthetic generator (the default workload).
WorkloadFactory SyntheticWorkload();

}  // namespace flower

#endif  // FLOWERCDN_API_WORKLOAD_SOURCE_H_
