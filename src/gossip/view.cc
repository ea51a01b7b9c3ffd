#include "gossip/view.h"

#include <algorithm>
#include <cassert>

namespace flower {

namespace {

// The view's order: freshest first, ties by address. A function object,
// so the searches inline the comparison.
struct KeyLess {
  bool operator()(const ViewEntry& a, const ViewEntry& b) const {
    if (a.age != b.age) return a.age < b.age;
    return a.addr < b.addr;
  }
};

// Whether `e` replaces `cur`, an entry for the same contact: the most
// recent instance wins, and on an age tie one carrying a summary.
bool Better(const ViewEntry& e, const ViewEntry& cur) {
  return e.age < cur.age || (e.age == cur.age && !cur.summary && e.summary);
}

}  // namespace

View::View(int capacity, int max_age)
    : capacity_(capacity), max_age_(max_age) {
  assert(capacity > 0);
}

void View::IncrementAges() {
  for (auto& e : entries_) ++e.age;
}

const ViewEntry* View::SelectOldest() const {
  if (entries_.empty()) return nullptr;
  // The oldest age group sits at the back; its first entry has the
  // lowest address.
  const int oldest = entries_.back().age;
  return &*std::partition_point(
      entries_.begin(), entries_.end(),
      [oldest](const ViewEntry& e) { return e.age < oldest; });
}

std::vector<ViewEntry> View::SelectSubset(int count, Rng* rng,
                                          PeerAddress exclude) const {
  // Draw over the entries other than `exclude` (at most one, addresses
  // being unique), read in place by skipping its index.
  size_t skip = 0;
  while (skip < entries_.size() && entries_[skip].addr != exclude) ++skip;
  const size_t eligible = entries_.size() - (skip < entries_.size() ? 1 : 0);
  std::vector<size_t> chosen =
      rng->SampleIndices(eligible, static_cast<size_t>(std::max(count, 0)));
  std::vector<ViewEntry> out;
  out.reserve(chosen.size());
  for (size_t c : chosen) {
    out.push_back(entries_[c < skip ? c : c + 1]);
    // Transit aging (peer sampling service, Jelasity et al.): a shipped
    // copy is one hop staler than the local one. Without this, min-age
    // merging across peers with staggered age ticks lets a dead contact's
    // copies circulate at age ~0 forever.
    out.back().age += 1;
  }
  return out;
}

bool View::Admissible(const ViewEntry& e, PeerAddress self) const {
  // An entry older than max_age is a circulating copy of a dead contact.
  return e.addr != self && e.addr != kInvalidAddress && e.age <= max_age_;
}

void View::Insert(const ViewEntry& e, PeerAddress self) {
  if (!Admissible(e, self)) return;
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&e](const ViewEntry& cur) {
                           return cur.addr == e.addr;
                         });
  if (it != entries_.end()) {
    if (!Better(e, *it)) return;
    // A better instance is no older, so its slot is at or before the old
    // one: slide the entries in between one place back.
    auto slot = std::lower_bound(entries_.begin(), it, e, KeyLess());
    std::move_backward(slot, it, it + 1);
    *slot = e;
    return;
  }
  if (entries_.size() == static_cast<size_t>(capacity_)) {
    if (!KeyLess()(e, entries_.back())) return;  // it would be evicted
    entries_.pop_back();
  }
  entries_.reserve(static_cast<size_t>(capacity_));  // once per buffer
  entries_.insert(
      std::lower_bound(entries_.begin(), entries_.end(), e, KeyLess()), e);
}

void View::Merge(const std::vector<ViewEntry>& received,
                 const std::optional<ViewEntry>& fresh, PeerAddress self) {
  // Inserting one entry at a time keeps exactly the `capacity` best
  // instances that merging everything and truncating once would: an
  // entry only ever leaves the view for `capacity` strictly better ones.
  for (const auto& e : received) Insert(e, self);
  if (fresh.has_value()) Insert(*fresh, self);
}

bool View::Remove(PeerAddress addr) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].addr == addr) {
      entries_.erase(entries_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

size_t View::DropOlderThan(int max_age) {
  // The stale entries are the tail.
  auto first_dead = std::partition_point(
      entries_.begin(), entries_.end(),
      [max_age](const ViewEntry& e) { return e.age <= max_age; });
  const size_t dropped = static_cast<size_t>(entries_.end() - first_dead);
  entries_.erase(first_dead, entries_.end());
  return dropped;
}

const ViewEntry* View::Find(PeerAddress addr) const {
  for (const auto& e : entries_) {
    if (e.addr == addr) return &e;
  }
  return nullptr;
}

}  // namespace flower
