#include "cache/content_store.h"

#include <cstdio>
#include <cstdlib>

#include "common/config.h"

namespace flower {

ContentStore ContentStore::FromConfig(const SimConfig& config) {
  Result<CachePolicy> policy = ParseCachePolicy(config.cache_policy);
  // SimConfig::Apply validates the key, but the field can also be set
  // directly; silently running the wrong experiment is worse than dying,
  // so this stays fatal in Release builds too.
  if (!policy.ok()) {
    std::fprintf(stderr, "fatal: %s\n", policy.status().ToString().c_str());
    std::abort();
  }
  return ContentStore(policy.value(), config.cache_capacity_bytes);
}

namespace {

bool DistanceCostEnabled(const SimConfig& config) {
  return config.cache_cost == "distance";
}

/// The one place the raw distance-to-cost rule lives: the measured
/// latency floored at 1 (an object is never cheaper than local).
double DistanceSample(SimTime distance) {
  return distance > 1 ? static_cast<double>(distance) : 1.0;
}

}  // namespace

RefetchCostModel::RefetchCostModel(const SimConfig& config)
    : distance_enabled_(DistanceCostEnabled(config)) {}

double RefetchCostModel::OnFetch(ObjectId object, SimTime distance) {
  if (!distance_enabled_) return 1.0;
  const double sample = DistanceSample(distance);
  auto [it, inserted] = ewma_.emplace(object, sample);
  if (!inserted) {
    it->second = kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * it->second;
  }
  return it->second;
}

double RefetchCostModel::CostOf(ObjectId object) const {
  if (!distance_enabled_) return 1.0;
  auto it = ewma_.find(object);
  return it == ewma_.end() ? 1.0 : it->second;
}

}  // namespace flower
