// The generic eviction engine behind every capacity-bounded map in the
// system: a byte-accounted store of Key -> size with a pluggable
// replacement policy.
//
// Two stores run on this engine today:
//  - ContentStore (content_store.h): ObjectId-keyed peer storage, the
//    bounded cache of content/directory/Squirrel peers;
//  - DirectoryStore (directory_store.h): PeerAddress-keyed directory
//    index entries, sized by entry footprint.
//
// Everything here is fully deterministic: victim choice never draws from
// an Rng, and with capacity 0 (unlimited) the engine is behaviorally a
// plain std::map (sorted iteration, no evictions), so unbounded runs
// reproduce the seed's RNG draws and metric values bit-identically.
//
// Storage is flat (two parallel sorted vectors, ~12 bytes per resident
// vs ~64 bytes per red-black-tree node): at 100k peers the per-peer
// content stores dominate RSS, so the resident set must cost bytes, not
// pointers. Iteration order (ascending keys) is identical to the map it
// replaced; inserts/erases are O(n) memmoves, which is cheap at the
// tens-to-hundreds of residents a peer store actually holds.
#ifndef FLOWERCDN_CACHE_KEYED_STORE_H_
#define FLOWERCDN_CACHE_KEYED_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/eviction_policy.h"

namespace flower {

/// Victim-selection strategy plugged into a KeyedStore. The store owns
/// residency and byte accounting; the policy only ranks residents.
template <typename K>
class KeyedEvictionPolicy {
 public:
  virtual ~KeyedEvictionPolicy() = default;

  /// `key` became resident with the given size. `cost` is the retrieval
  /// cost GDSF weighs into its priority (1.0 everywhere except
  /// latency-aware caching, see `cache_cost=distance`).
  virtual void OnInsert(const K& key, uint64_t size_bytes, double cost) = 0;

  /// `key` was accessed (local hit, serve to another peer, liveness
  /// contact).
  virtual void OnAccess(const K& key) = 0;

  /// The accounted size of a resident `key` changed (directory index
  /// entries grow and shrink with their object lists). Only size-aware
  /// policies care.
  virtual void OnResize(const K& key, uint64_t size_bytes) {
    (void)key;
    (void)size_bytes;
  }

  /// `key` left the store (evicted or erased).
  virtual void OnRemove(const K& key) = 0;

  /// Selects the next key to evict. Returns false when the policy
  /// refuses to name a victim (Unbounded) or tracks nothing.
  virtual bool ChooseVictim(K* out) const = 0;

  virtual CachePolicy kind() const = 0;
};

namespace cache_detail {

/// Keep-everything: never names a victim. The store treats an unanswered
/// ChooseVictim on a full store as an admission rejection, so pairing
/// this with a finite capacity yields a "first come, stay forever"
/// store; with capacity 0 (unlimited) it reproduces the paper exactly.
template <typename K>
class UnboundedPolicy : public KeyedEvictionPolicy<K> {
 public:
  void OnInsert(const K&, uint64_t, double) override {}
  void OnAccess(const K&) override {}
  void OnRemove(const K&) override {}
  bool ChooseVictim(K*) const override { return false; }
  CachePolicy kind() const override { return CachePolicy::kUnbounded; }
};

/// Least-recently-used, tracked with a logical access clock.
template <typename K>
class LruPolicy : public KeyedEvictionPolicy<K> {
 public:
  void OnInsert(const K& key, uint64_t, double) override { Stamp(key); }
  void OnAccess(const K& key) override { Stamp(key); }

  void OnRemove(const K& key) override {
    auto it = stamp_of_.find(key);
    if (it == stamp_of_.end()) return;
    by_stamp_.erase(it->second);
    stamp_of_.erase(it);
  }

  bool ChooseVictim(K* out) const override {
    if (by_stamp_.empty()) return false;
    *out = by_stamp_.begin()->second;
    return true;
  }

  CachePolicy kind() const override { return CachePolicy::kLru; }

 private:
  void Stamp(const K& key) {
    auto it = stamp_of_.find(key);
    if (it != stamp_of_.end()) by_stamp_.erase(it->second);
    uint64_t stamp = ++clock_;
    stamp_of_[key] = stamp;
    by_stamp_[stamp] = key;
  }

  uint64_t clock_ = 0;
  std::unordered_map<K, uint64_t> stamp_of_;
  std::map<uint64_t, K> by_stamp_;  // oldest stamp first
};

/// Least-frequently-used; ties broken towards the least recently used.
template <typename K>
class LfuPolicy : public KeyedEvictionPolicy<K> {
 public:
  void OnInsert(const K& key, uint64_t, double) override { Bump(key); }
  void OnAccess(const K& key) override { Bump(key); }

  void OnRemove(const K& key) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    ranked_.erase({it->second.freq, it->second.stamp, key});
    state_of_.erase(it);
  }

  bool ChooseVictim(K* out) const override {
    if (ranked_.empty()) return false;
    *out = std::get<2>(*ranked_.begin());
    return true;
  }

  CachePolicy kind() const override { return CachePolicy::kLfu; }

 private:
  struct State {
    uint64_t freq = 0;
    uint64_t stamp = 0;
  };

  void Bump(const K& key) {
    State& s = state_of_[key];
    if (s.freq > 0) ranked_.erase({s.freq, s.stamp, key});
    ++s.freq;
    s.stamp = ++clock_;
    ranked_.insert({s.freq, s.stamp, key});
  }

  uint64_t clock_ = 0;
  std::unordered_map<K, State> state_of_;
  std::set<std::tuple<uint64_t, uint64_t, K>> ranked_;
};

/// Greedy-Dual-Size-Frequency (Cherkasova 1998): priority
///   Pr(f) = L + cost(f) * freq(f) / size(f)
/// where L is an inflation clock set to the priority of the last victim.
/// Evicts low-frequency, large, cheaply-refetched objects first; aging
/// via L keeps formerly popular objects from squatting forever. The cost
/// term is 1 under `cache_cost=uniform` (plain GDSF) and the measured
/// provider->client latency under `cache_cost=distance`.
template <typename K>
class GdsfPolicy : public KeyedEvictionPolicy<K> {
 public:
  void OnInsert(const K& key, uint64_t size_bytes, double cost) override {
    State& s = state_of_[key];
    s.freq = 1;
    s.size = size_bytes > 0 ? size_bytes : 1;
    s.cost = cost > 0 ? cost : 1.0;
    Rank(key, s);
  }

  void OnAccess(const K& key) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    ranked_.erase({it->second.priority, key});
    ++it->second.freq;
    Rank(key, it->second);
  }

  void OnResize(const K& key, uint64_t size_bytes) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    ranked_.erase({it->second.priority, key});
    it->second.size = size_bytes > 0 ? size_bytes : 1;
    Rank(key, it->second);
  }

  void OnRemove(const K& key) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    // The inflation update belongs to *eviction*; explicit erases of a
    // mid-priority object must not raise L above surviving entries, so L
    // only advances when the removed object is the current minimum.
    if (!ranked_.empty() && ranked_.begin()->second == key) {
      inflation_ = it->second.priority;
    }
    ranked_.erase({it->second.priority, key});
    state_of_.erase(it);
  }

  bool ChooseVictim(K* out) const override {
    if (ranked_.empty()) return false;
    *out = ranked_.begin()->second;
    return true;
  }

  CachePolicy kind() const override { return CachePolicy::kGdsf; }

 private:
  struct State {
    uint64_t freq = 0;
    uint64_t size = 1;
    double cost = 1.0;
    double priority = 0;
  };

  void Rank(const K& key, State& s) {
    s.priority = inflation_ + s.cost * static_cast<double>(s.freq) /
                                  static_cast<double>(s.size);
    ranked_.insert({s.priority, key});
  }

  double inflation_ = 0;
  std::unordered_map<K, State> state_of_;
  std::set<std::pair<double, K>> ranked_;  // lowest priority first
};

}  // namespace cache_detail

template <typename K>
std::unique_ptr<KeyedEvictionPolicy<K>> MakeKeyedEvictionPolicy(
    CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kUnbounded:
      return std::make_unique<cache_detail::UnboundedPolicy<K>>();
    case CachePolicy::kLru:
      return std::make_unique<cache_detail::LruPolicy<K>>();
    case CachePolicy::kLfu:
      return std::make_unique<cache_detail::LfuPolicy<K>>();
    case CachePolicy::kGdsf:
      return std::make_unique<cache_detail::GdsfPolicy<K>>();
  }
  assert(false && "unhandled cache policy");
  return std::make_unique<cache_detail::UnboundedPolicy<K>>();
}

/// Lifetime counters of one KeyedStore.
struct CacheStats {
  uint64_t insertions = 0;        // keys that became resident
  uint64_t hits = 0;              // Touch() calls on resident keys
  uint64_t evictions = 0;         // victims removed for capacity
  uint64_t bytes_evicted = 0;
  uint64_t admission_rejects = 0; // inserts refused (size, no victim)
};

/// The keyed eviction engine: residency, byte accounting and capacity
/// enforcement around a pluggable policy.
template <typename K>
class KeyedStore {
 public:
  /// capacity_bytes == 0 means unlimited storage. The Unbounded policy
  /// is stateless (no OnInsert/OnAccess bookkeeping, never a victim), so
  /// it is represented by a null policy_ — one fewer heap chunk per peer
  /// store, which the 100k-peer runs feel.
  explicit KeyedStore(CachePolicy policy = CachePolicy::kUnbounded,
                      uint64_t capacity_bytes = 0)
      : policy_kind_(policy),
        capacity_bytes_(capacity_bytes),
        policy_(policy == CachePolicy::kUnbounded
                    ? nullptr
                    : MakeKeyedEvictionPolicy<K>(policy)) {}

  KeyedStore(KeyedStore&&) = default;
  KeyedStore& operator=(KeyedStore&&) = default;

  // --- Residency --------------------------------------------------------------

  bool Contains(const K& key) const { return IndexOf(key) != kNpos; }

  /// std::set-compatible spelling (0 or 1), kept so call sites and tests
  /// read the same as with the old `std::set` state.
  size_t count(const K& key) const { return Contains(key) ? 1 : 0; }

  /// Records an access to a resident key (policy recency/frequency
  /// bookkeeping). No-op when the key is absent.
  void Touch(const K& key) {
    if (IndexOf(key) == kNpos) return;
    ++stats_.hits;
    if (policy_ != nullptr) policy_->OnAccess(key);
  }

  /// Makes `key` resident with the given size. Returns true if the key
  /// is resident afterwards. Victims evicted to make room are appended to
  /// `*evicted` (never containing `key` itself). Re-inserting a resident
  /// key counts as a Touch; a differing `size_bytes` is ignored (the
  /// original accounting stands — use Resize for mutable footprints). An
  /// insert is rejected — resident set unchanged — when the key alone
  /// exceeds capacity, or when the policy cannot name a victim (Unbounded
  /// on a full bounded store).
  /// `cost` feeds the GDSF priority (1 = plain GDSF).
  bool Insert(const K& key, uint64_t size_bytes,
              std::vector<K>* evicted = nullptr, double cost = 1.0) {
    if (IndexOf(key) != kNpos) {
      Touch(key);
      return true;
    }
    if (bounded()) {
      if (size_bytes + reserved_bytes_ > capacity_bytes_) {
        ++stats_.admission_rejects;
        return false;
      }
      while (bytes_used_ + size_bytes + reserved_bytes_ > capacity_bytes_) {
        K victim;
        if (policy_ == nullptr || !policy_->ChooseVictim(&victim)) {
          // Unbounded on a full bounded store: nothing may leave, so the
          // newcomer is turned away instead.
          ++stats_.admission_rejects;
          return false;
        }
        Evict(victim, evicted);
      }
    }
    InsertSorted(key, size_bytes);
    bytes_used_ += size_bytes;
    ++stats_.insertions;
    if (policy_ != nullptr) policy_->OnInsert(key, size_bytes, cost);
    return true;
  }

  /// Adjusts the accounted size of a resident key (directory index
  /// entries grow and shrink with their object lists). On growth past
  /// capacity, policy-chosen victims are evicted until the store fits;
  /// when the policy refuses to name one (Unbounded) or the resized key
  /// alone no longer fits, the resized key itself is evicted (and
  /// appended to `*evicted`). Returns true when `key` is still resident
  /// afterwards; false when it is absent or was evicted by the resize.
  bool Resize(const K& key, uint64_t new_size, std::vector<K>* evicted) {
    size_t i = IndexOf(key);
    if (i == kNpos) return false;
    bytes_used_ = bytes_used_ - sizes_[i] + new_size;
    sizes_[i] = SizeRep(new_size);
    if (policy_ != nullptr) policy_->OnResize(key, new_size);
    if (!bounded()) return true;
    if (new_size + reserved_bytes_ > capacity_bytes_) {
      // Hopeless alone (mirrors Insert's oversized-object rejection):
      // only the grown key leaves — draining every other resident first
      // would wipe the store for an entry that can never fit.
      Evict(key, evicted);
      return false;
    }
    while (bytes_used_ + reserved_bytes_ > capacity_bytes_) {
      K victim;
      if (policy_ == nullptr || !policy_->ChooseVictim(&victim)) victim = key;
      Evict(victim, evicted);
      if (victim == key) return false;
    }
    return true;
  }

  /// Explicitly removes a key (not counted as an eviction).
  bool Erase(const K& key) {
    size_t i = IndexOf(key);
    if (i == kNpos) return false;
    bytes_used_ -= sizes_[i];
    if (policy_ != nullptr) policy_->OnRemove(key);
    EraseAt(i);
    return true;
  }

  // --- Introspection ----------------------------------------------------------

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  bool bounded() const { return capacity_bytes_ > 0; }

  /// Carves `bytes` of the capacity budget out for out-of-band state
  /// the owner co-accounts with this store (the DirectoryStore charges
  /// its neighbor summaries here): residents may only use
  /// capacity - reserved bytes. Growing the reservation evicts
  /// policy-chosen victims until residents fit again (appended to
  /// `*evicted`); when the policy names none (Unbounded), the remaining
  /// residents stay — like Insert, the engine never force-drains an
  /// Unbounded store. Accounting-only on unbounded (capacity 0) stores.
  void SetReservedBytes(uint64_t bytes, std::vector<K>* evicted) {
    reserved_bytes_ = bytes;
    if (!bounded()) return;
    while (bytes_used_ + reserved_bytes_ > capacity_bytes_) {
      K victim;
      if (policy_ == nullptr || !policy_->ChooseVictim(&victim)) break;
      Evict(victim, evicted);
    }
  }
  CachePolicy policy() const { return policy_kind_; }
  const CacheStats& stats() const { return stats_; }

  /// Resident keys in ascending order (matches the iteration order of
  /// the std::set / std::map state this engine replaced). Borrowed: it
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

  void InsertSorted(const K& key, uint64_t size_bytes) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    size_t i = static_cast<size_t>(it - keys_.begin());
    keys_.insert(it, key);
    sizes_.insert(sizes_.begin() + static_cast<std::ptrdiff_t>(i),
                  SizeRep(size_bytes));
  }

  void EraseAt(size_t i) {
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
    sizes_.erase(sizes_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void Evict(const K& victim, std::vector<K>* evicted) {
    size_t i = IndexOf(victim);
    assert(i != kNpos && "evicting a non-resident key");
    bytes_used_ -= sizes_[i];
    ++stats_.evictions;
    stats_.bytes_evicted += sizes_[i];
    if (policy_ != nullptr) policy_->OnRemove(victim);
    EraseAt(i);
    if (evicted != nullptr) evicted->push_back(victim);
  }

  CachePolicy policy_kind_;
  uint64_t capacity_bytes_;
  /// Null for the stateless Unbounded policy (see constructor).
  std::unique_ptr<KeyedEvictionPolicy<K>> policy_;
  // Flat sorted storage: keys_ ascending, sizes_ parallel (key ->
  // size_bytes). Replaces a std::map whose ~48-byte node overhead
  // dominated per-peer RSS at scale.
  std::vector<K> keys_;
  std::vector<uint32_t> sizes_;
  uint64_t bytes_used_ = 0;
  uint64_t reserved_bytes_ = 0;  // capacity carved out (SetReservedBytes)
  CacheStats stats_;
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_KEYED_STORE_H_
