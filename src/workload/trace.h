// Query-trace persistence: record a generated workload to a file and
// replay it later, so experiments can be re-run bit-identically across
// machines or against modified systems.
#ifndef FLOWERCDN_WORKLOAD_TRACE_H_
#define FLOWERCDN_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "workload/workload.h"

namespace flower {

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<QueryEvent> events)
      : events_(std::move(events)) {}

  const std::vector<QueryEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Records the full output of a generator.
  static Trace Record(WorkloadGenerator* generator);

  /// Saves as a line-oriented text file (format v1):
  ///   header line  "flower-trace v1 <count>"
  ///   event lines  "<time> <website> <rank> <object> <node> <locality>"
  Status Save(const std::string& path) const;

  /// Loads a file produced by Save. Validates the header and field
  /// counts. v2 files, written while objects had per-object sizes, still
  /// load: each event line carries a seventh column, <size_bits>, which
  /// is read and dropped (every object has config.object_size_bits).
  static Result<Trace> Load(const std::string& path);

 private:
  std::vector<QueryEvent> events_;
};

}  // namespace flower

#endif  // FLOWERCDN_WORKLOAD_TRACE_H_
