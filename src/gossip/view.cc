#include "gossip/view.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

namespace flower {

namespace {

// Whether `e` replaces `cur`, an entry for the same contact: the most
// recent instance wins, and on an age tie one carrying a summary.
bool Better(const ViewEntry& e, const ViewEntry& cur) {
  return e.age < cur.age || (e.age == cur.age && !cur.summary && e.summary);
}

// A view entry's place in the view's order (freshest first, ties by
// address) as one integer: the age, biased so that signed order is
// unsigned order, above the address.
uint64_t OrderKey(const ViewEntry& e) {
  const uint32_t age = static_cast<uint32_t>(e.age) ^ 0x80000000u;
  return static_cast<uint64_t>(age) << 32 | e.addr;
}

// An admissible batch entry during a merge: its address until the batch
// meets the view, then its OrderKey.
struct Candidate {
  uint64_t key;
  const ViewEntry* entry;  // nullptr once the view's instance beat it
};

// Per-thread merge scratch; the runs of a jobs=N sweep merge views on
// several threads at the same time. The vectors settle at the largest
// merge the thread has made.
struct MergeScratch {
  std::vector<Candidate> batch;
  // Open-addressed table from address to candidate index + 1 (0: free).
  std::vector<uint32_t> table;
  // Indices of the view entries that may share a contact with the batch.
  std::vector<uint32_t> probes;
};
thread_local MergeScratch tls_scratch;

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

void View::Merge(const std::vector<ViewEntry>& received,
                 const std::optional<ViewEntry>& fresh, PeerAddress self) {
  // 1-2. The admissible batch grouped by address in an open-addressed
  // table at load <= 1/8, one instance per contact: the first, unless a
  // later one is better. When the view is full, an instance that sorts
  // after its last entry can neither enter it, nor beat the view's
  // instance of its contact, nor beat a later instance that could.
  std::vector<Candidate>& batch = tls_scratch.batch;
  std::vector<uint32_t>& table = tls_scratch.table;
  int bits = 4;
  while ((size_t{1} << bits) < 8 * (received.size() + 1)) ++bits;
  const uint32_t mask = (uint32_t{1} << bits) - 1;
  table.assign(size_t{mask} + 1, 0);
  auto home = [&](PeerAddress addr) {
    return (addr * 0x9e3779b1u) >> (32 - bits);
  };
  auto slot_of = [&](PeerAddress addr) -> uint32_t& {
    uint32_t h = home(addr);
    while (table[h] != 0 && batch[table[h] - 1].key != addr) {
      h = (h + 1) & mask;
    }
    return table[h];
  };
  const uint64_t cutoff =
      entries_.size() == static_cast<size_t>(capacity_)
          ? OrderKey(entries_.back())
          : std::numeric_limits<uint64_t>::max();
  batch.clear();
  auto offer = [&](const ViewEntry& e) {
    if (!Admissible(e, self) || OrderKey(e) > cutoff) return;
    uint32_t& slot = slot_of(e.addr);
    if (slot == 0) {
      batch.push_back({e.addr, &e});
      slot = static_cast<uint32_t>(batch.size());
    } else if (Better(e, *batch[slot - 1].entry)) {
      batch[slot - 1].entry = &e;
    }
  };
  for (const ViewEntry& e : received) offer(e);
  if (fresh.has_value()) offer(*fresh);
  if (batch.empty()) return;

  // 3. A contact the view holds too keeps the better of the two
  // instances, the view's counting as the earlier. A view entry whose home
  // slot is free is not in the batch; the others are collected without a
  // branch (most entries miss) and looked up. A beaten view entry is
  // marked with the invalid address, which Admissible keeps out of views.
  std::vector<uint32_t>& probes = tls_scratch.probes;
  probes.resize(static_cast<size_t>(capacity_));  // the view never holds more
  size_t n = 0;
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    probes[n] = i;
    n += table[home(entries_[i].addr)] != 0;
  }
  size_t beaten = 0;
  for (size_t k = 0; k < n; ++k) {
    ViewEntry& cur = entries_[probes[k]];
    const uint32_t slot = slot_of(cur.addr);
    if (slot == 0) continue;
    Candidate& c = batch[slot - 1];
    if (Better(*c.entry, cur)) {
      cur.addr = kInvalidAddress;
      ++beaten;
    } else {
      c.entry = nullptr;
    }
  }

  // 4. The batch's survivors in the view's order. A welcome's contacts,
  // all of age 0 in ascending address order, are in it already.
  size_t kept = 0;
  for (const Candidate& c : batch) {
    if (c.entry != nullptr) batch[kept++] = {OrderKey(*c.entry), c.entry};
  }
  batch.resize(kept);
  auto by_key = [](const Candidate& a, const Candidate& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(batch.begin(), batch.end(), by_key)) {
    std::sort(batch.begin(), batch.end(), by_key);
  }

  // 5. Merge the two sorted runs from the back into entries_, up to
  // capacity, stepping over beaten view entries: the union's last
  // `total - keep` entries get no slot, and a batch entry is copied only
  // when it gets one. A beaten entry's better instance sorts no later
  // than it, so every beaten entry left below the cut is stepped over
  // before the last batch entry is placed.
  const size_t total = entries_.size() - beaten + batch.size();
  const size_t keep = std::min(total, static_cast<size_t>(capacity_));
  ptrdiff_t i = static_cast<ptrdiff_t>(entries_.size()) - 1;
  ptrdiff_t j = static_cast<ptrdiff_t>(batch.size()) - 1;
  for (size_t drop = total - keep; drop > 0;) {
    if (i >= 0 && entries_[i].addr == kInvalidAddress) {
      --i;
    } else if (i >= 0 && (j < 0 || batch[j].key < OrderKey(entries_[i]))) {
      --i;
      --drop;
    } else {
      --j;
      --drop;
    }
  }
  if (keep > entries_.size()) {
    entries_.reserve(static_cast<size_t>(capacity_));  // once per buffer
  }
  entries_.resize(keep);
  for (size_t w = keep; j >= 0;) {
    if (i >= 0 && entries_[i].addr == kInvalidAddress) {
      --i;
    } else if (i >= 0 && batch[j].key < OrderKey(entries_[i])) {
      entries_[--w] = std::move(entries_[i--]);
    } else {
      entries_[--w] = *batch[j--].entry;
    }
  }
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
