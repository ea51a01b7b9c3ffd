#include "workload/workload.h"

#include <cassert>

namespace flower {

WorkloadGenerator::WorkloadGenerator(const SimConfig& config,
                                     const Deployment& deployment,
                                     const WebsiteCatalog& catalog,
                                     uint64_t seed)
    : config_(&config),
      deployment_(&deployment),
      catalog_(&catalog),
      rng_(seed),
      zipf_(static_cast<size_t>(config.num_objects_per_website),
            config.zipf_alpha),
      mean_gap_ms_(1000.0 / config.queries_per_second) {
  locality_weights_ = config.locality_weights;
  if (static_cast<int>(locality_weights_.size()) != config.num_localities) {
    locality_weights_.assign(static_cast<size_t>(config.num_localities), 1.0);
  }
  assert(config.num_active_websites > 0);
}

bool WorkloadGenerator::Next(QueryEvent* out) {
  // The gap is checked against the run's end before the cast: a tiny
  // rate draws gaps past SimTime's range. `next_time_ + floor(gap) + 1 >=
  // duration` holds exactly when `gap >= duration - next_time_ - 1`, so
  // every stream that fits ends where it always did.
  const double gap = rng_.Exponential(mean_gap_ms_);
  if (!(gap < static_cast<double>(config_->duration - next_time_ - 1))) {
    next_time_ = config_->duration;
    return false;
  }
  next_time_ += static_cast<SimTime>(gap) + 1;

  out->time = next_time_;
  int num_active =
      static_cast<int>(deployment_->client_pools.size());
  out->website = static_cast<WebsiteId>(
      rng_.Index(static_cast<size_t>(num_active)));

  // Draw a locality with a non-empty pool for this website.
  const auto& pools = deployment_->client_pools[out->website];
  size_t loc = 0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    loc = rng_.WeightedIndex(locality_weights_);
    if (!pools[loc].empty()) break;
  }
  if (pools[loc].empty()) {
    for (size_t l = 0; l < pools.size(); ++l) {
      if (!pools[l].empty()) {
        loc = l;
        break;
      }
    }
  }
  assert(!pools[loc].empty() && "workload requires a non-empty client pool");
  out->locality = static_cast<LocalityId>(loc);
  out->node = pools[loc][rng_.Index(pools[loc].size())];

  out->object_rank = zipf_.Sample(&rng_);
  const Website& site = catalog_->site(out->website);
  out->object = site.objects[out->object_rank];
  ++events_generated_;
  return true;
}

std::vector<QueryEvent> WorkloadGenerator::GenerateAll() {
  std::vector<QueryEvent> trace;
  QueryEvent ev;
  while (Next(&ev)) trace.push_back(ev);
  return trace;
}

}  // namespace flower
