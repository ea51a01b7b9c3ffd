// Bounded directory-side storage: the directory peer's index of its
// content overlay, a capacity-constrained resource just like peer
// caches.
//
// The paper assumes a directory peer indexes *every* content peer of its
// (website, locality). The ROADMAP's scale-up north star (Sec 5.3) needs
// small directory nodes whose peer -> content index is itself bounded:
// each entry is keyed by the content peer's address and sized by its
// footprint (base record + bytes per claimed object id). Under a finite
// `directory_index_capacity`, admitting or growing an entry evicts the
// entries with the oldest contact (admission, query, push, keepalive or
// answered redirect). The store keeps the holder counts — the object
// reference counts the directory summary is built from — consistent
// through every admission, update, expiry and eviction, and reports what
// changed (Delta) so the peer can refresh summaries and count metrics.
//
// The store also owns the neighbor directory summaries, so the whole of
// a directory peer's soft state lives behind one facade.
//
// Flyweight layout (the 100k-peer substrate): object claims are dense
// per-site ObjectSlot handles (4 bytes, common/interner.h) held in
// sorted vectors — no per-member or per-claim tree nodes. Slot order
// equals id order within a site, so every iteration is byte-identical to
// the id-keyed std::map/std::set state this replaced. The DirectoryPeer
// converts ObjectId <-> ObjectSlot at its boundaries (queries arrive as
// ids; Bloom summaries hash the original ids).
//
// The entry table is a sorted address array with a parallel array of
// 4-byte positions into a pool of Entry records (and, in a bounded
// index, their recency stamps). An Entry stays at its pool position for
// its whole life (freed positions are reused), so admitting or erasing a
// member shifts only the two 4-byte arrays, never an Entry; iteration
// still runs in ascending address order, which the welcome draw, aging
// and the leave handoff depend on. The LRU victim is the member with the
// smallest stamp, found by an O(n) scan (victim choice never draws from
// an Rng).
//
// With capacity 0 (the default) nothing is ever evicted and behavior is
// bit-identical to the pre-refactor unbounded std::maps.
#ifndef FLOWERCDN_CACHE_DIRECTORY_STORE_H_
#define FLOWERCDN_CACHE_DIRECTORY_STORE_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "bloom/summary.h"
#include "common/types.h"

namespace flower {

struct SimConfig;

class DirectoryStore {
 public:
  /// One directory-index entry: the directory's view of one content peer
  /// (paper Sec 3.3 — age, join time, object list). `objects` holds the
  /// claimed ObjectSlots in ascending order (== ascending ObjectId).
  struct Entry {
    int age = 0;
    SimTime joined_at = 0;
    std::vector<ObjectSlot> objects;

    bool Claims(ObjectSlot slot) const {
      return std::binary_search(objects.begin(), objects.end(), slot);
    }
  };

  /// A Bloom summary received from a same-website neighbor directory.
  struct NeighborSummary {
    PeerAddress addr = kInvalidAddress;
    LocalityId locality = 0;
    SummaryRef summary;
  };

  /// What a mutation changed, for summary-refresh bookkeeping and
  /// metrics. `new_slots` are object slots whose holder count went
  /// 0 -> 1, `evicted` the index entries removed for capacity (expiry
  /// and explicit erases are NOT evictions). Slots whose last holder
  /// left simply drop out of holder_slots().
  struct Delta {
    std::vector<ObjectSlot> new_slots;
    std::vector<PeerAddress> evicted;
  };

  /// Accounted footprint of an entry claiming `num_objects` ids. Charged
  /// at the original 8-bytes-per-id width — the slot is an in-memory
  /// compression, not a change of what an index entry logically holds —
  /// so bounded-index experiments keep their pre-flyweight capacities.
  static constexpr uint64_t kEntryBaseBytes = 64;
  static constexpr uint64_t kBytesPerObjectId = 8;
  static uint64_t FootprintBytes(size_t num_objects) {
    return kEntryBaseBytes + kBytesPerObjectId * num_objects;
  }

  /// Accounted footprint of one neighbor directory summary: a base
  /// record plus the Bloom filter's wire bytes. Summaries share the
  /// `directory_index_capacity` budget with index entries (as a
  /// reservation carved off the capacity), so every summary received
  /// from a neighbor visibly squeezes the index.
  static constexpr uint64_t kSummaryBaseBytes = 32;
  static uint64_t SummaryFootprintBytes(const NeighborSummary& summary);

  /// capacity_bytes == 0 means an unbounded index (the paper's model);
  /// a finite capacity evicts the least recently used entries.
  explicit DirectoryStore(uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Builds a store from the `directory_index_capacity` config key.
  static DirectoryStore FromConfig(const SimConfig& config);

  DirectoryStore(DirectoryStore&&) = default;
  DirectoryStore& operator=(DirectoryStore&&) = default;

  // --- Index entries ----------------------------------------------------------

  bool Contains(PeerAddress peer) const { return IndexOf(peer) != kNpos; }
  const Entry* Find(PeerAddress peer) const;
  size_t size() const { return addrs_.size(); }
  bool empty() const { return addrs_.empty(); }

  /// Ascending-PeerAddress view of (address, entry) pairs, iterable like
  /// the std::map this store once exposed (range-for with structured
  /// bindings, begin()/end(), std::advance). The view borrows the
  /// store: do not mutate while iterating.
  class EntryView {
   public:
    class const_iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = std::pair<PeerAddress, const Entry&>;
      using difference_type = std::ptrdiff_t;
      struct ArrowProxy {
        value_type pair;
        const value_type* operator->() const { return &pair; }
      };
      using pointer = ArrowProxy;
      using reference = value_type;

      const_iterator(const DirectoryStore* store, size_t i)
          : store_(store), i_(i) {}
      value_type operator*() const {
        return {store_->addrs_[i_], store_->EntryAt(i_)};
      }
      ArrowProxy operator->() const { return ArrowProxy{**this}; }
      const_iterator& operator++() {
        ++i_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator t = *this;
        ++i_;
        return t;
      }
      const_iterator& operator--() {
        --i_;
        return *this;
      }
      const_iterator operator--(int) {
        const_iterator t = *this;
        --i_;
        return t;
      }
      const_iterator& operator+=(difference_type d) {
        i_ = static_cast<size_t>(static_cast<difference_type>(i_) + d);
        return *this;
      }
      friend const_iterator operator+(const_iterator a, difference_type d) {
        a += d;
        return a;
      }
      friend difference_type operator-(const const_iterator& a,
                                       const const_iterator& b) {
        return static_cast<difference_type>(a.i_) -
               static_cast<difference_type>(b.i_);
      }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

     private:
      const DirectoryStore* store_;
      size_t i_;
    };

    explicit EntryView(const DirectoryStore* store) : store_(store) {}
    const_iterator begin() const { return const_iterator(store_, 0); }
    const_iterator end() const {
      return const_iterator(store_, store_->addrs_.size());
    }
    size_t size() const { return store_->addrs_.size(); }
    bool empty() const { return store_->addrs_.empty(); }

   private:
    const DirectoryStore* store_;
  };

  /// Entries in ascending PeerAddress order (the iteration order of the
  /// std::map this store replaced).
  EntryView entries() const { return EntryView(this); }

  /// Number of entries whose address is below `peer`: its position in
  /// entries() when resident.
  size_t RankOf(PeerAddress peer) const {
    return static_cast<size_t>(
        std::lower_bound(addrs_.begin(), addrs_.end(), peer) - addrs_.begin());
  }
  /// Address of the entry at position `rank` of entries().
  PeerAddress AddressAt(size_t rank) const { return addrs_[rank]; }

  /// Records a liveness contact with a resident entry (query, push or
  /// keepalive): resets its age and makes it the most recently used.
  /// No-op when the peer is absent.
  void Touch(PeerAddress peer);

  /// Records a usefulness signal only (the entry answered a redirect):
  /// refreshes its recency without resetting the age — being *useful* is
  /// not evidence the peer is *alive*, and T_dead expiry must not drift.
  /// No-op when the peer is absent or the store is unbounded.
  void Probe(PeerAddress peer);

  /// Overwrites a resident entry's lifecycle fields (a handed-over
  /// directory knows the peer's true age and join time better than the
  /// heir's provisional admission does). No-op when the peer is absent.
  void SetEntryState(PeerAddress peer, int age, SimTime joined_at);

  /// Admits a new empty entry with the given age/join time (re-admitting
  /// a resident entry is a Touch). Returns false when an empty entry
  /// alone exceeds what the budget leaves beside the neighbor summaries;
  /// nobody is evicted then. Capacity evictions performed to make room
  /// land in `*delta`.
  bool Admit(PeerAddress peer, int age, SimTime joined_at, Delta* delta);

  /// Applies a content delta to a resident entry: `add` then `remove`,
  /// resizing the entry's footprint. Growth past capacity evicts LRU
  /// victims — possibly the updated entry itself, when it is the least
  /// recently used; an entry that alone no longer fits evicts only
  /// itself. The resize is not a contact: neither the age nor the
  /// recency changes (callers Touch() where a contact is implied). No-op
  /// when the peer is absent.
  void Update(PeerAddress peer, const std::vector<ObjectSlot>& add,
              const std::vector<ObjectSlot>& remove, Delta* delta);

  /// Explicit removal (T_dead expiry, LeaveMsg, undeliverable client):
  /// not counted as an eviction.
  void Erase(PeerAddress peer);

  /// Algorithm 6 active behavior: ages every entry, then erases those
  /// reaching `dead_age_limit` (expiry, not eviction).
  void AgeAll(int dead_age_limit);

  // --- Holder counts (summary source) ----------------------------------------

  /// True when at least one index entry claims `slot`.
  bool AnyHolder(ObjectSlot slot) const {
    return HolderIndexOf(slot) != kNpos;
  }

  /// Object slots with at least one claiming entry, ascending (== the
  /// ascending-ObjectId order of the map this replaced). Directory
  /// summaries are built from exactly this list, so eviction consistency
  /// here is what keeps rebuilt summaries honest.
  const std::vector<ObjectSlot>& holder_slots() const {
    return holder_slots_;
  }
  /// Number of index entries claiming holder_slots()[i] (> 0).
  int holder_count_at(size_t i) const {
    return static_cast<int>(holder_lists_[i].size());
  }

  /// The index entries claiming `slot`, ascending by address (== the
  /// order a scan of entries() would discover them in), or nullptr when
  /// no entry claims it. This inverted index is what keeps query
  /// redirection O(log holders) instead of O(index entries) — the scan
  /// it replaces dominated the event loop at 100k peers.
  const std::vector<PeerAddress>* HoldersOf(ObjectSlot slot) const {
    size_t i = HolderIndexOf(slot);
    return i == kNpos ? nullptr : &holder_lists_[i];
  }

  // --- Neighbor summaries -----------------------------------------------------

  const std::map<Key, NeighborSummary>& summaries() const {
    return summaries_;
  }
  bool HasSummaryFrom(Key dir_id) const {
    return summaries_.count(dir_id) > 0;
  }
  /// Stores (or replaces) a neighbor's summary, re-accounting its
  /// footprint against the index budget: on a bounded store, growing
  /// the summary reservation can evict index entries (reported in
  /// `*delta`). Summaries themselves are never evicted — protocol
  /// correctness needs the neighbor map complete — they only squeeze
  /// the entry budget.
  void PutSummary(Key dir_id, NeighborSummary summary, Delta* delta);
  /// Drops every neighbor summary held for `addr` (dead neighbor),
  /// returning their footprint to the index budget.
  void EraseSummariesFrom(PeerAddress addr);

  /// Bytes of the index budget currently reserved by neighbor
  /// summaries.
  uint64_t summary_bytes() const { return summary_bytes_; }

  // --- Capacity accounting ----------------------------------------------------

  bool bounded() const { return capacity_bytes_ > 0; }
  /// Total footprint of the index entries (summaries not included).
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  size_t IndexOf(PeerAddress peer) const {
    const size_t i = RankOf(peer);
    return i < addrs_.size() && addrs_[i] == peer ? i : kNpos;
  }
  const Entry& EntryAt(size_t i) const { return entries_[entry_of_[i]]; }
  Entry& EntryAt(size_t i) { return entries_[entry_of_[i]]; }
  size_t HolderIndexOf(ObjectSlot slot) const {
    auto it =
        std::lower_bound(holder_slots_.begin(), holder_slots_.end(), slot);
    if (it == holder_slots_.end() || *it != slot) return kNpos;
    return static_cast<size_t>(it - holder_slots_.begin());
  }

  /// Records that `peer` claims `slot`; true when the slot went 0 -> 1
  /// holders.
  bool HolderRef(ObjectSlot slot, PeerAddress peer);
  /// Drops `peer`'s claim on `slot`, removing the slot with its last
  /// holder.
  void HolderUnref(ObjectSlot slot, PeerAddress peer);

  /// Makes the entry at pool position `e` the most recently used (a
  /// bounded store only: an unbounded one keeps no stamps).
  void Stamp(uint32_t e) {
    if (bounded()) stamps_[e] = ++clock_;
  }

  /// Position in addrs_ of the least recently used entry (the smallest
  /// stamp). The store must not be empty.
  size_t LruIndex() const;

  /// Removes the entry at position `i` of addrs_: releases its holder
  /// counts and footprint and frees its pool position.
  void RemoveAt(size_t i);

  /// Capacity eviction of the entry at position `i`, reported in `delta`.
  void EvictAt(size_t i, Delta* delta);

  /// Evicts LRU entries until they, `incoming` more bytes and the
  /// summary reservation fit the budget, or none is left (a bounded
  /// store only).
  void EvictToFit(uint64_t incoming, Delta* delta);

  uint64_t capacity_bytes_;
  uint64_t bytes_used_ = 0;  // sum of the entries' FootprintBytes
  uint64_t clock_ = 0;       // last stamp handed out
  // Entry table: addrs_ ascending, entry_of_ parallel (the position of
  // addrs_[i]'s Entry in entries_). Positions are stable while resident;
  // free_entries_ holds the vacated ones for reuse. In a bounded store
  // stamps_ is parallel to entries_: the clock value of each entry's
  // last admission, Touch or Probe.
  std::vector<PeerAddress> addrs_;
  std::vector<uint32_t> entry_of_;
  std::vector<Entry> entries_;
  std::vector<uint64_t> stamps_;
  std::vector<uint32_t> free_entries_;
  // Inverted holder index: holder_slots_ ascending, holder_lists_
  // parallel (each list the claiming addresses, ascending).
  std::vector<ObjectSlot> holder_slots_;
  std::vector<std::vector<PeerAddress>> holder_lists_;
  std::map<Key, NeighborSummary> summaries_;
  uint64_t summary_bytes_ = 0;  // total footprint of summaries_
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_DIRECTORY_STORE_H_
