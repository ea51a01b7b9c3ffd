#include "workload/trace.h"

#include <cinttypes>
#include <cstdio>

namespace flower {

Trace Trace::Record(WorkloadGenerator* generator) {
  return Trace(generator->GenerateAll());
}

Status Trace::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  std::fprintf(f, "flower-trace v1 %zu\n", events_.size());
  for (const QueryEvent& e : events_) {
    std::fprintf(f, "%" PRId64 " %u %zu %" PRIu64 " %u %u\n", e.time,
                 e.website, e.object_rank, e.object, e.node, e.locality);
  }
  std::fclose(f);
  return Status::Ok();
}

Result<Trace> Trace::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  int version = 0;
  size_t count = 0;
  if (std::fscanf(f, "flower-trace v%d %zu\n", &version, &count) != 2 ||
      (version != 1 && version != 2)) {
    std::fclose(f);
    return Status::InvalidArgument("bad trace header in " + path);
  }
  std::vector<QueryEvent> events;
  events.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryEvent e;
    if (std::fscanf(f, "%" SCNd64 " %u %zu %" SCNu64 " %u %u", &e.time,
                    &e.website, &e.object_rank, &e.object, &e.node,
                    &e.locality) != 6) {
      std::fclose(f);
      return Status::InvalidArgument("truncated trace at event " +
                                     std::to_string(i));
    }
    uint64_t size_bits;
    if (version == 2 && std::fscanf(f, "%" SCNu64, &size_bits) != 1) {
      // A v2 row without its (unread) size column is malformed.
      std::fclose(f);
      return Status::InvalidArgument("missing size_bits at event " +
                                     std::to_string(i));
    }
    events.push_back(e);
  }
  std::fclose(f);
  return Trace(std::move(events));
}

}  // namespace flower
