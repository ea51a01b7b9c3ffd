// Bounded peer storage: the ObjectId instantiation of the keyed store
// (src/cache/keyed_store.h), the cache of content, directory and
// Squirrel peers.
//
// This replaces the raw `std::set<ObjectId>` content state of those
// peers. With the default `cache_policy=unbounded` and capacity 0 it is
// behaviorally identical to the set (iteration stays sorted by ObjectId,
// no RNG is consumed), so existing experiments reproduce the seed's RNG
// draws and metric values exactly. With a finite `cache_capacity_bytes`
// under `cache_policy=lru`, inserts evict the least recently used
// objects; callers receive the evicted ids so deletions can propagate as
// deltas (PushMsg.removed, summary rebuilds) instead of letting gossip
// summaries and directory indexes silently lie. Under
// `cache_policy=unbounded` a finite capacity fills and then turns new
// objects away.
#ifndef FLOWERCDN_CACHE_CONTENT_STORE_H_
#define FLOWERCDN_CACHE_CONTENT_STORE_H_

#include "cache/keyed_store.h"
#include "common/types.h"

namespace flower {

struct SimConfig;

class ContentStore : public KeyedStore<ObjectId> {
 public:
  using KeyedStore<ObjectId>::KeyedStore;

  /// Builds a store from the `cache_policy` / `cache_capacity_bytes`
  /// config keys (an unknown policy name is fatal).
  static ContentStore FromConfig(const SimConfig& config);
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_CONTENT_STORE_H_
