// The byte-accounted store behind every capacity-bounded map in the
// system: a sorted set of Key -> size with one optional eviction order,
// least recently used.
//
// Two stores run on it:
//  - ContentStore (content_store.h): ObjectId-keyed peer storage, the
//    cache of content/directory/Squirrel peers;
//  - DirectoryStore (directory_store.h): PeerAddress-keyed directory
//    index entries, sized by entry footprint.
//
// A store has a capacity (0 = unlimited) and one of two policies:
//  - kUnbounded never evicts. With capacity 0 it is the paper's
//    keep-everything store. With a finite capacity it admits until full
//    and then turns newcomers away, and an entry that grows past the
//    budget evicts itself.
//  - kLru evicts the resident whose last admission, re-insertion or
//    Touch is the oldest.
//
// Everything here is fully deterministic: victim choice never draws from
// an Rng, and with capacity 0 the store is behaviorally a plain std::map
// (sorted iteration, no evictions), so unbounded runs reproduce the
// seed's RNG draws and metric values bit-identically.
//
// Storage is flat (parallel sorted vectors, ~12 bytes per resident, 20
// under LRU, vs ~64 bytes per red-black-tree node): at 100k peers the
// per-peer content stores dominate RSS, so the resident set must cost
// bytes, not pointers. Iteration order (ascending keys) is identical to
// the map it replaced; inserts/erases are O(n) memmoves and the LRU
// victim is found by an O(n) scan of the stamps, both cheap at the
// tens-to-hundreds of residents a store actually holds.
#ifndef FLOWERCDN_CACHE_KEYED_STORE_H_
#define FLOWERCDN_CACHE_KEYED_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace flower {

enum class CachePolicy : uint8_t {
  kUnbounded = 0,  // never evict (the paper's behavior; the default)
  kLru,            // evict the least recently used resident
};

/// The policy named by a `cache_policy` / `directory_index_policy` value.
/// SimConfig::Apply validates both keys, but the fields can also be set
/// directly; silently running the wrong experiment is worse than dying,
/// so an unknown name is fatal in Release builds too.
inline CachePolicy CachePolicyFromName(const std::string& name) {
  if (name == "lru") return CachePolicy::kLru;
  if (name != "unbounded") {
    std::fprintf(stderr,
                 "fatal: unknown cache policy: \"%s\" (accepted: unbounded, "
                 "lru)\n",
                 name.c_str());
    std::abort();
  }
  return CachePolicy::kUnbounded;
}

template <typename K>
class KeyedStore {
 public:
  /// capacity_bytes == 0 means unlimited storage.
  explicit KeyedStore(CachePolicy policy = CachePolicy::kUnbounded,
                      uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes),
        lru_(policy == CachePolicy::kLru) {}

  KeyedStore(KeyedStore&&) = default;
  KeyedStore& operator=(KeyedStore&&) = default;

  // --- Residency --------------------------------------------------------------

  bool Contains(const K& key) const { return IndexOf(key) != kNpos; }

  /// Records an access to a resident key: under LRU it becomes the most
  /// recently used. No-op when the key is absent or the store is not LRU.
  void Touch(const K& key) {
    if (!lru_) return;
    const size_t i = IndexOf(key);
    if (i != kNpos) stamps_[i] = ++clock_;
  }

  /// Makes `key` resident with the given size. Returns true if the key
  /// is resident afterwards. Victims evicted to make room are appended to
  /// `*evicted` (never containing `key` itself). Re-inserting a resident
  /// key counts as a Touch; a differing `size_bytes` is ignored (the
  /// original accounting stands — use Resize for mutable footprints). An
  /// insert is rejected — resident set unchanged — when the key alone
  /// exceeds capacity, or when a full bounded store is not LRU.
  bool Insert(const K& key, uint64_t size_bytes,
              std::vector<K>* evicted = nullptr) {
    if (Contains(key)) {
      Touch(key);
      return true;
    }
    if (bounded()) {
      if (size_bytes + reserved_bytes_ > capacity_bytes_) return false;
      while (bytes_used_ + size_bytes + reserved_bytes_ > capacity_bytes_) {
        // Without an eviction order nothing may leave, so the newcomer
        // is turned away instead.
        if (!lru_) return false;
        EvictAt(LruIndex(), evicted);
      }
    }
    InsertSorted(key, size_bytes);
    bytes_used_ += size_bytes;
    return true;
  }

  /// Adjusts the accounted size of a resident key (directory index
  /// entries grow and shrink with their object lists). On growth past
  /// capacity, LRU victims are evicted until the store fits; on a store
  /// that is not LRU, or when the resized key alone no longer fits, the
  /// resized key itself is evicted (and appended to `*evicted`). Returns
  /// true when `key` is still resident afterwards; false when it is
  /// absent or was evicted by the resize.
  bool Resize(const K& key, uint64_t new_size, std::vector<K>* evicted) {
    const size_t i = IndexOf(key);
    if (i == kNpos) return false;
    bytes_used_ = bytes_used_ - sizes_[i] + new_size;
    sizes_[i] = SizeRep(new_size);
    if (!bounded()) return true;
    if (new_size + reserved_bytes_ > capacity_bytes_) {
      // Hopeless alone (mirrors Insert's oversized-object rejection):
      // only the grown key leaves — draining every other resident first
      // would wipe the store for an entry that can never fit.
      EvictAt(i, evicted);
      return false;
    }
    while (bytes_used_ + reserved_bytes_ > capacity_bytes_) {
      const size_t victim = lru_ ? LruIndex() : IndexOf(key);
      const bool self = keys_[victim] == key;
      EvictAt(victim, evicted);
      if (self) return false;
    }
    return true;
  }

  /// Explicitly removes a key (not counted as an eviction).
  bool Erase(const K& key) {
    const size_t i = IndexOf(key);
    if (i == kNpos) return false;
    bytes_used_ -= sizes_[i];
    EraseAt(i);
    return true;
  }

  // --- Introspection ----------------------------------------------------------

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  bool bounded() const { return capacity_bytes_ > 0; }

  /// Carves `bytes` of the capacity budget out for out-of-band state
  /// the owner co-accounts with this store (the DirectoryStore charges
  /// its neighbor summaries here): residents may only use
  /// capacity - reserved bytes. Growing the reservation evicts LRU
  /// victims until residents fit again (appended to `*evicted`); on a
  /// store that is not LRU the residents stay — like Insert, the store
  /// never force-drains without an eviction order. Accounting-only on
  /// unbounded (capacity 0) stores.
  void SetReservedBytes(uint64_t bytes, std::vector<K>* evicted) {
    reserved_bytes_ = bytes;
    if (!bounded() || !lru_) return;
    while (bytes_used_ + reserved_bytes_ > capacity_bytes_ && !empty()) {
      EvictAt(LruIndex(), evicted);
    }
  }

  /// Resident keys in ascending order (matches the iteration order of
  /// the std::set / std::map state this store replaced). Borrowed: it
  /// must not be held across a mutation of the store.
  const std::vector<K>& keys() const { return keys_; }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  /// Accounted sizes are stored as u32 (4 bytes/resident instead of 8):
  /// every size in the system — object bytes, index-entry footprints —
  /// is far below 4 GiB. The assert guards the representation; the
  /// public API stays uint64_t.
  static uint32_t SizeRep(uint64_t size_bytes) {
    assert(size_bytes <= 0xffffffffull && "entry size exceeds u32 storage");
    return static_cast<uint32_t>(size_bytes);
  }

  /// Index of `key` in the sorted key vector, kNpos when absent.
  size_t IndexOf(const K& key) const {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || key < *it) return kNpos;
    return static_cast<size_t>(it - keys_.begin());
  }

  /// Index of the least recently used resident (the smallest stamp).
  size_t LruIndex() const {
    assert(lru_ && !stamps_.empty());
    return static_cast<size_t>(
        std::min_element(stamps_.begin(), stamps_.end()) - stamps_.begin());
  }

  void InsertSorted(const K& key, uint64_t size_bytes) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    const auto i = it - keys_.begin();
    keys_.insert(it, key);
    sizes_.insert(sizes_.begin() + i, SizeRep(size_bytes));
    if (lru_) stamps_.insert(stamps_.begin() + i, ++clock_);
  }

  void EraseAt(size_t i) {
    const auto at = static_cast<std::ptrdiff_t>(i);
    keys_.erase(keys_.begin() + at);
    sizes_.erase(sizes_.begin() + at);
    if (lru_) stamps_.erase(stamps_.begin() + at);
  }

  void EvictAt(size_t i, std::vector<K>* evicted) {
    bytes_used_ -= sizes_[i];
    if (evicted != nullptr) evicted->push_back(keys_[i]);
    EraseAt(i);
  }

  uint64_t capacity_bytes_;
  // Flat sorted storage: keys_ ascending, sizes_ parallel (key ->
  // size_bytes) and, in an LRU store only, stamps_ parallel (the clock
  // value of the key's last admission or access). Replaces a std::map
  // whose ~48-byte node overhead dominated per-peer RSS at scale.
  std::vector<K> keys_;
  std::vector<uint32_t> sizes_;
  std::vector<uint64_t> stamps_;
  uint64_t bytes_used_ = 0;
  uint64_t reserved_bytes_ = 0;  // capacity carved out (SetReservedBytes)
  uint64_t clock_ = 0;           // last stamp handed out (LRU only)
  bool lru_;
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_KEYED_STORE_H_
