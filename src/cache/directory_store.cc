#include "cache/directory_store.h"

#include <cassert>

#include "bloom/summary.h"
#include "common/config.h"

namespace flower {

DirectoryStore::DirectoryStore(CachePolicy policy, uint64_t capacity_bytes)
    : engine_(policy, capacity_bytes) {}

DirectoryStore DirectoryStore::FromConfig(const SimConfig& config) {
  return DirectoryStore(CachePolicyFromName(config.directory_index_policy),
                        config.directory_index_capacity_bytes);
}

const DirectoryStore::Entry* DirectoryStore::Find(PeerAddress peer) const {
  size_t i = IndexOf(peer);
  return i == kNpos ? nullptr : &EntryAt(i);
}

void DirectoryStore::Touch(PeerAddress peer) {
  size_t i = IndexOf(peer);
  if (i == kNpos) return;
  EntryAt(i).age = 0;
  engine_.Touch(peer);
}

void DirectoryStore::Probe(PeerAddress peer) { engine_.Touch(peer); }

void DirectoryStore::SetEntryState(PeerAddress peer, int age,
                                   SimTime joined_at) {
  size_t i = IndexOf(peer);
  if (i == kNpos) return;
  Entry& entry = EntryAt(i);
  entry.age = age;
  entry.joined_at = joined_at;
}

bool DirectoryStore::Admit(PeerAddress peer, int age, SimTime joined_at,
                           Delta* delta) {
  if (Contains(peer)) {
    Touch(peer);
    return true;
  }
  std::vector<PeerAddress> evicted;
  if (!engine_.Insert(peer, FootprintBytes(0), &evicted)) {
    AbsorbEvictions(evicted, delta);
    return false;
  }
  AbsorbEvictions(evicted, delta);
  uint32_t e;
  if (free_entries_.empty()) {
    e = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    e = free_entries_.back();
    free_entries_.pop_back();
  }
  entries_[e].age = age;
  entries_[e].joined_at = joined_at;
  const auto i = static_cast<std::ptrdiff_t>(RankOf(peer));
  addrs_.insert(addrs_.begin() + i, peer);
  entry_of_.insert(entry_of_.begin() + i, e);
  return true;
}

bool DirectoryStore::HolderRef(ObjectSlot slot, PeerAddress peer) {
  auto it = std::lower_bound(holder_slots_.begin(), holder_slots_.end(), slot);
  size_t i = static_cast<size_t>(it - holder_slots_.begin());
  if (it != holder_slots_.end() && *it == slot) {
    std::vector<PeerAddress>& holders = holder_lists_[i];
    auto pos = std::lower_bound(holders.begin(), holders.end(), peer);
    assert(pos == holders.end() || *pos != peer);
    holders.insert(pos, peer);
    return false;
  }
  holder_slots_.insert(it, slot);
  holder_lists_.insert(holder_lists_.begin() + static_cast<std::ptrdiff_t>(i),
                       std::vector<PeerAddress>{peer});
  return true;
}

void DirectoryStore::HolderUnref(ObjectSlot slot, PeerAddress peer) {
  size_t i = HolderIndexOf(slot);
  if (i == kNpos) return;
  std::vector<PeerAddress>& holders = holder_lists_[i];
  auto pos = std::lower_bound(holders.begin(), holders.end(), peer);
  if (pos == holders.end() || *pos != peer) return;
  holders.erase(pos);
  if (!holders.empty()) return;
  holder_slots_.erase(holder_slots_.begin() + static_cast<std::ptrdiff_t>(i));
  holder_lists_.erase(holder_lists_.begin() + static_cast<std::ptrdiff_t>(i));
}

void DirectoryStore::Update(PeerAddress peer,
                            const std::vector<ObjectSlot>& add,
                            const std::vector<ObjectSlot>& remove,
                            Delta* delta) {
  size_t i = IndexOf(peer);
  if (i == kNpos) return;
  Entry& entry = EntryAt(i);
  for (ObjectSlot slot : add) {
    if (slot == kInvalidSlot) continue;  // foreign id, not in this site
    auto pos = std::lower_bound(entry.objects.begin(), entry.objects.end(),
                                slot);
    if (pos != entry.objects.end() && *pos == slot) continue;
    entry.objects.insert(pos, slot);
    if (HolderRef(slot, peer)) delta->new_slots.push_back(slot);
  }
  for (ObjectSlot slot : remove) {
    auto pos = std::lower_bound(entry.objects.begin(), entry.objects.end(),
                                slot);
    if (pos == entry.objects.end() || *pos != slot) continue;
    entry.objects.erase(pos);
    HolderUnref(slot, peer);
  }
  std::vector<PeerAddress> evicted;
  engine_.Resize(peer, FootprintBytes(entry.objects.size()), &evicted);
  AbsorbEvictions(evicted, delta);
}

void DirectoryStore::Erase(PeerAddress peer) {
  if (!engine_.Erase(peer)) return;
  DropPayload(peer);
}

void DirectoryStore::AgeAll(int dead_age_limit) {
  std::vector<PeerAddress> dead;
  for (size_t i = 0; i < addrs_.size(); ++i) {
    if (++EntryAt(i).age >= dead_age_limit) dead.push_back(addrs_[i]);
  }
  for (PeerAddress addr : dead) Erase(addr);
}

uint64_t DirectoryStore::SummaryFootprintBytes(
    const NeighborSummary& summary) {
  const uint64_t filter_bytes =
      !summary.summary ? 0 : (summary.summary->SizeBits() + 7) / 8;
  return kSummaryBaseBytes + filter_bytes;
}

void DirectoryStore::PutSummary(Key dir_id, NeighborSummary summary,
                                Delta* delta) {
  auto it = summaries_.find(dir_id);
  if (it != summaries_.end()) {
    summary_bytes_ -= SummaryFootprintBytes(it->second);
  }
  summary_bytes_ += SummaryFootprintBytes(summary);
  summaries_[dir_id] = std::move(summary);
  std::vector<PeerAddress> evicted;
  engine_.SetReservedBytes(summary_bytes_, &evicted);
  AbsorbEvictions(evicted, delta);
}

void DirectoryStore::EraseSummariesFrom(PeerAddress addr) {
  for (auto it = summaries_.begin(); it != summaries_.end();) {
    if (it->second.addr == addr) {
      summary_bytes_ -= SummaryFootprintBytes(it->second);
      it = summaries_.erase(it);
    } else {
      ++it;
    }
  }
  // Shrinking a reservation never evicts.
  engine_.SetReservedBytes(summary_bytes_, nullptr);
}

void DirectoryStore::DropPayload(PeerAddress peer) {
  size_t i = IndexOf(peer);
  assert(i != kNpos && "engine and payload table out of sync");
  const uint32_t e = entry_of_[i];
  for (ObjectSlot slot : entries_[e].objects) HolderUnref(slot, peer);
  entries_[e] = Entry{};  // frees the claim list
  free_entries_.push_back(e);
  addrs_.erase(addrs_.begin() + static_cast<std::ptrdiff_t>(i));
  entry_of_.erase(entry_of_.begin() + static_cast<std::ptrdiff_t>(i));
}

void DirectoryStore::AbsorbEvictions(const std::vector<PeerAddress>& evicted,
                                     Delta* delta) {
  for (PeerAddress victim : evicted) {
    DropPayload(victim);
    delta->evicted.push_back(victim);
  }
}

}  // namespace flower
