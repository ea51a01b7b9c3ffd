// Age-based partial views for gossip membership management (paper Sec 4.2,
// in the style of Cyclon / the peer sampling service — citations [21, 10]).
//
// A view holds at most V_gossip entries. Entries age by one every gossip
// period; exchanges merge the local view with the received subset keeping
// the freshest instance of each contact (paper Algorithm 4's merge() +
// select_recent()).
#ifndef FLOWERCDN_GOSSIP_VIEW_H_
#define FLOWERCDN_GOSSIP_VIEW_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "bloom/summary.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"

namespace flower {

/// One view entry: a contact's address, the entry age (freshness of this
/// information, *not* the contact's lifetime), and optionally the contact's
/// content summary. Summaries are shared snapshots: many entries across the
/// overlay reference the same immutable filter.
struct ViewEntry {
  PeerAddress addr = kInvalidAddress;
  int age = 0;
  SummaryRef summary;  // may be null

  /// Wire size of this entry inside a gossip message.
  uint64_t WireBits() const {
    return kAddressBits + kAgeBits + (summary ? summary->SizeBits() : 0);
  }
};
// Views hold V_gossip of these per content peer: keep them at two words.
static_assert(sizeof(ViewEntry) == 16, "ViewEntry grew");

/// The entries of a view are kept sorted by (age, addr) — freshest first,
/// ties by address — and never exceed `capacity()`. Addresses are unique
/// within a view, so the order is total: every selection below is a pure
/// function of the entry set.
class View {
 public:
  /// capacity: V_gossip. max_age: entries older than this are dead contacts
  /// — they are dropped by DropOlderThan() and rejected at Merge() time so
  /// they cannot re-enter from circulating subsets.
  explicit View(int capacity, int max_age = std::numeric_limits<int>::max());

  int capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Sorted by (age, addr).
  const std::vector<ViewEntry>& entries() const { return entries_; }

  /// Algorithm 4: view.increment_age().
  void IncrementAges();

  /// Algorithm 4: view.select_oldest(). Returns nullptr when empty. Ties
  /// break deterministically by address.
  const ViewEntry* SelectOldest() const;

  /// Algorithm 4: view.select_subset() — up to `count` random entries,
  /// excluding `exclude` (pass kInvalidAddress for no exclusion).
  std::vector<ViewEntry> SelectSubset(int count, Rng* rng,
                                      PeerAddress exclude) const;

  /// Algorithm 4: merge() + select_recent(). Combines the current view, the
  /// received subset and an optional fresh entry for the gossip partner,
  /// dropping duplicates (keeping the smallest age, or on a tie the first
  /// instance carrying a summary, the view's own instance first) and
  /// entries for `self`, then keeps the `capacity` most recent entries.
  /// One pass over the view for any batch; a batch already in the view's
  /// order, as a directory's welcome is (age 0, ascending addresses), is
  /// not sorted. `received` must not alias entries().
  void Merge(const std::vector<ViewEntry>& received,
             const std::optional<ViewEntry>& fresh, PeerAddress self);

  /// Removes the entry for a (dead) contact. Returns true if present.
  bool Remove(PeerAddress addr);

  /// Drops entries older than `max_age` gossip rounds. Entries that stale
  /// were never refreshed by any exchange, which in a connected overlay
  /// means the contact is almost surely gone; without this, dead contacts
  /// re-infect views through exchanged subsets forever. Returns the number
  /// of entries dropped.
  size_t DropOlderThan(int max_age);

  /// Looks up an entry by address; nullptr if absent.
  const ViewEntry* Find(PeerAddress addr) const;

  /// True if any entry refers to this address.
  bool Contains(PeerAddress addr) const { return Find(addr) != nullptr; }

 private:
  bool Admissible(const ViewEntry& e, PeerAddress self) const;

  int capacity_;
  int max_age_;
  std::vector<ViewEntry> entries_;
};

}  // namespace flower

#endif  // FLOWERCDN_GOSSIP_VIEW_H_
