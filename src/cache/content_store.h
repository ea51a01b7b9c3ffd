// Bounded peer storage: the cache of content, directory and Squirrel
// peers, a sorted set of ObjectIds.
//
// Every object is `object_size_bits / 8` bytes, so a byte budget is an
// object budget. With `cache_capacity_bytes` 0 (the default) the store
// keeps every object, the paper's Sec 4 peers, and behaves as the
// `std::set<ObjectId>` it replaced: iteration is sorted by ObjectId and
// no RNG is consumed, so unbounded runs reproduce the seed's draws and
// metric values exactly. A finite `cache_capacity_bytes` holds
// `cache_capacity_bytes / (object_size_bits / 8)` objects and evicts the
// least recently used one to admit another; callers receive the evicted
// ids so deletions propagate as deltas (PushMsg.removed, summary
// rebuilds) instead of letting gossip summaries and directory indexes
// silently lie. A budget below one object holds nothing.
//
// Storage is flat: the ids in one ascending vector (8 bytes per object)
// and, in a bounded store only, a parallel vector of recency stamps (the
// clock value of each object's last admission, re-insertion or Touch;
// the victim is the smallest stamp). Inserts are O(n) memmoves and the
// victim is found by an O(n) scan, both cheap at the tens-to-hundreds of
// objects a peer holds; at 100k peers these stores dominate RSS, so an
// object must cost bytes, not tree nodes. Victim choice never draws from
// an Rng.
#ifndef FLOWERCDN_CACHE_CONTENT_STORE_H_
#define FLOWERCDN_CACHE_CONTENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"

namespace flower {

struct SimConfig;

class ContentStore {
 public:
  /// A store that keeps every object it is given.
  ContentStore() = default;
  /// A store of at most `max_objects` objects that evicts the least
  /// recently used one to admit another; 0 holds nothing.
  explicit ContentStore(size_t max_objects) : max_objects_(max_objects) {}

  /// Builds a store from `cache_capacity_bytes` and `object_size_bits`:
  /// unbounded at capacity 0, otherwise LRU over as many objects as fit.
  static ContentStore FromConfig(const SimConfig& config);

  bool Contains(ObjectId id) const { return IndexOf(id) != kNpos; }

  /// Records an access to a resident object: in a bounded store it
  /// becomes the most recently used. No-op when the object is absent or
  /// the store is unbounded.
  void Touch(ObjectId id);

  /// Makes `id` resident. Returns true if it is resident afterwards. The
  /// victim evicted to make room is appended to `*evicted` (never `id`
  /// itself). Re-inserting a resident object counts as a Touch. A store
  /// that holds nothing turns every object away.
  bool Insert(ObjectId id, std::vector<ObjectId>* evicted = nullptr);

  /// Explicitly removes an object (not counted as an eviction).
  bool Erase(ObjectId id);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  bool bounded() const { return max_objects_ != kUnbounded; }

  /// Resident ids in ascending order (the iteration order of the
  /// std::set this store replaced). Borrowed: it must not be held across
  /// a mutation of the store.
  const std::vector<ObjectId>& keys() const { return ids_; }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  /// Index of `id` in ids_, kNpos when absent.
  size_t IndexOf(ObjectId id) const;

  std::vector<ObjectId> ids_;      // ascending
  std::vector<uint64_t> stamps_;   // parallel to ids_, bounded stores only
  uint64_t clock_ = 0;             // last stamp handed out
  size_t max_objects_ = kUnbounded;
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_CONTENT_STORE_H_
