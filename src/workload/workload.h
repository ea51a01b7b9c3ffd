// Synthetic query workload (paper Sec 6.1).
//
// Queries arrive as a Poisson process at `queries_per_second`. For each
// query: (1) an active website is drawn uniformly; (2) a locality is drawn
// by population weight; (3) the originator is drawn uniformly from the
// (website, locality) client pool — its first query makes it a "new
// client", later ones a content-peer query; (4) the object is drawn from
// the website's catalog by a Zipf law.
#ifndef FLOWERCDN_WORKLOAD_WORKLOAD_H_
#define FLOWERCDN_WORKLOAD_WORKLOAD_H_

#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/zipf.h"
#include "core/deployment.h"
#include "core/website.h"

namespace flower {

struct QueryEvent {
  SimTime time = 0;
  WebsiteId website = 0;
  size_t object_rank = 0;
  ObjectId object = 0;
  NodeId node = kInvalidNode;
  LocalityId locality = 0;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const SimConfig& config, const Deployment& deployment,
                    const WebsiteCatalog& catalog, uint64_t seed);

  /// Produces the next query event; returns false once the configured
  /// duration is exceeded.
  bool Next(QueryEvent* out);

  /// Materializes the whole query stream (for inspection).
  std::vector<QueryEvent> GenerateAll();

  uint64_t events_generated() const { return events_generated_; }

 private:
  const SimConfig* config_;
  const Deployment* deployment_;
  const WebsiteCatalog* catalog_;
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<double> locality_weights_;
  double mean_gap_ms_;
  SimTime next_time_ = 0;
  uint64_t events_generated_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_WORKLOAD_WORKLOAD_H_
