// Bounded peer storage: the ObjectId instantiation of the keyed eviction
// engine (src/cache/keyed_store.h) plus the config plumbing shared by
// every peer cache.
//
// This replaces the raw `std::set<ObjectId>` content state of content,
// directory and Squirrel peers. With the default Unbounded policy and
// capacity 0 it is behaviorally identical to the set (iteration stays
// sorted by ObjectId, no RNG is consumed), so existing experiments
// reproduce the seed's RNG draws and metric values exactly (printed
// config/summary lines gain new fields). With a finite `capacity_bytes`,
// inserts evict victims chosen by the policy; callers receive the evicted
// ids so deletions can propagate as deltas (PushMsg.removed, summary
// rebuilds) instead of letting gossip summaries and directory indexes
// silently lie. The engine itself — byte accounting and LRU/LFU/GDSF
// victim choice — lives in KeyedStore and is shared with the
// DirectoryStore (directory_store.h).
#ifndef FLOWERCDN_CACHE_CONTENT_STORE_H_
#define FLOWERCDN_CACHE_CONTENT_STORE_H_

#include <unordered_map>
#include <vector>

#include "cache/keyed_store.h"
#include "common/types.h"

namespace flower {

struct SimConfig;

class ContentStore : public KeyedStore<ObjectId> {
 public:
  using KeyedStore<ObjectId>::KeyedStore;

  /// Builds a store from the `cache_policy` / `cache_capacity_bytes`
  /// config keys (falls back to Unbounded on an unknown policy name).
  static ContentStore FromConfig(const SimConfig& config);
};

/// Per-peer smoothing of GDSF retrieval costs. Under `cache_cost=distance`
/// GDSF weighs the measured provider->client transfer distance into its
/// priority, so far-fetched (expensive to re-fetch) objects outlive
/// equally popular local ones. Every observed (re)fetch of an object
/// folds its measured distance (floored at 1) into an EWMA,
/// kEwmaAlpha * latest + (1 - kEwmaAlpha) * previous, and inserts price
/// at the smoothed value instead of the single latest sample — one lucky
/// nearby re-fetch no longer erases an object's history of being
/// expensive to obtain. Under cache_cost=uniform the model stores nothing
/// and returns 1.
///
/// Every insert path — the serves of content, directory and Squirrel
/// peers — must price through its peer's model so the cost rule cannot
/// diverge between them.
class RefetchCostModel {
 public:
  /// Weight of the latest sample in the smoothed cost.
  static constexpr double kEwmaAlpha = 0.3;

  RefetchCostModel() = default;
  explicit RefetchCostModel(const SimConfig& config);

  /// Records a measured fetch of `object` over `distance` (one-way
  /// provider->client latency) and returns the smoothed cost to insert
  /// with.
  double OnFetch(ObjectId object, SimTime distance);

  /// The current smoothed cost (1.0 when never observed, or uniform).
  double CostOf(ObjectId object) const;

 private:
  bool distance_enabled_ = false;
  std::unordered_map<ObjectId, double> ewma_;
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_CONTENT_STORE_H_
