// Unit tests for the bounded directory-side storage
// (src/cache/directory_store.h): footprint accounting, holder-count
// consistency through admissions/updates/expiry/evictions, LRU victim
// choice, and the eviction/expiry attribution split.
#include "cache/directory_store.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/summary.h"
#include "common/config.h"
#include "common/rng.h"

namespace flower {
namespace {

/// Walks the store and asserts the holder refcounts are exactly the
/// reference counts of the entries' object lists — the invariant
/// directory summaries are built on.
void ExpectHolderCountsConsistent(const DirectoryStore& store) {
  std::map<ObjectSlot, int> expected;
  for (const auto& [addr, entry] : store.entries()) {
    for (ObjectSlot o : entry.objects) ++expected[o];
  }
  std::map<ObjectSlot, int> actual;
  for (size_t i = 0; i < store.holder_slots().size(); ++i) {
    actual[store.holder_slots()[i]] = store.holder_count_at(i);
  }
  EXPECT_EQ(actual, expected);
}

TEST(DirectoryStoreTest, FootprintAccounting) {
  DirectoryStore store(CachePolicy::kLru,
                       10 * DirectoryStore::FootprintBytes(0));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  EXPECT_EQ(store.bytes_used(), DirectoryStore::FootprintBytes(0));
  store.Update(1, {100, 101, 102}, {}, &d);
  EXPECT_EQ(store.bytes_used(), DirectoryStore::FootprintBytes(3));
  store.Update(1, {}, {101}, &d);
  EXPECT_EQ(store.bytes_used(), DirectoryStore::FootprintBytes(2));
  store.Erase(1);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(DirectoryStoreTest, DeltaReportsNewIdsAndLastUnrefDropsTheSlot) {
  DirectoryStore store;  // unbounded
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  store.Update(1, {100, 101}, {}, &d);
  EXPECT_EQ(d.new_slots, (std::vector<ObjectSlot>{100, 101}));

  d = {};
  store.Update(2, {100}, {}, &d);
  EXPECT_TRUE(d.new_slots.empty()) << "100 already had a holder";

  d = {};
  store.Update(1, {}, {100}, &d);
  EXPECT_TRUE(store.AnyHolder(100)) << "peer 2 still claims 100";
  store.Update(2, {}, {100}, &d);
  EXPECT_FALSE(store.AnyHolder(100));
  EXPECT_EQ(store.holder_slots(), (std::vector<ObjectSlot>{101}));
  EXPECT_TRUE(d.new_slots.empty());
  EXPECT_TRUE(d.evicted.empty());
  ExpectHolderCountsConsistent(store);
}

TEST(DirectoryStoreTest, CapacityEvictsLruEntryAndOrphansItsObjects) {
  // Room for exactly two empty entries.
  DirectoryStore store(CachePolicy::kLru,
                       2 * DirectoryStore::FootprintBytes(0));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  store.Touch(1);  // 2 is now the least recently used

  d = {};
  ASSERT_TRUE(store.Admit(3, 0, 0, &d));
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{2}));
  EXPECT_FALSE(store.Contains(2));
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Contains(3));
  ExpectHolderCountsConsistent(store);
}

TEST(DirectoryStoreTest, EvictionReleasesHolderCounts) {
  DirectoryStore store(CachePolicy::kLru,
                       2 * DirectoryStore::FootprintBytes(2));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  store.Update(1, {100, 101}, {}, &d);
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  store.Update(2, {100}, {}, &d);

  // Admitting 3 must evict 1 (oldest probe): 101 orphans, 100 survives
  // via peer 2 — exactly what a rebuilt summary must reflect.
  d = {};
  ASSERT_TRUE(store.Admit(3, 0, 0, &d));
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{1}));
  EXPECT_EQ(store.holder_slots(), (std::vector<ObjectSlot>{100}));
  EXPECT_TRUE(store.AnyHolder(100));
  EXPECT_FALSE(store.AnyHolder(101));
  ExpectHolderCountsConsistent(store);
}

TEST(DirectoryStoreTest, EntryGrowthCanEvictOtherEntries) {
  DirectoryStore store(CachePolicy::kLru,
                       DirectoryStore::FootprintBytes(0) +
                           DirectoryStore::FootprintBytes(3));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  // Growing 2 past the remaining budget must push 1 out.
  d = {};
  store.Update(2, {100, 101, 102, 103}, {}, &d);
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{1}));
  EXPECT_TRUE(store.Contains(2));
  ExpectHolderCountsConsistent(store);
}

TEST(DirectoryStoreTest, OversizedGrowthEvictsOnlyTheEntryItself) {
  DirectoryStore store(CachePolicy::kLru,
                       DirectoryStore::FootprintBytes(1) +
                           DirectoryStore::FootprintBytes(0));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  store.Update(2, {200}, {}, &d);
  // Ten objects exceed the whole budget: the grown entry can never fit,
  // so it alone is evicted — innocent residents must not be drained
  // first in a doomed attempt to make room.
  d = {};
  store.Update(1, {100, 101, 102, 103, 104, 105, 106, 107, 108, 109}, {},
               &d);
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{1}));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2)) << "bystanders survive a hopeless grow";
  EXPECT_TRUE(store.AnyHolder(200));
  EXPECT_FALSE(store.AnyHolder(100));
  EXPECT_EQ(store.bytes_used(), DirectoryStore::FootprintBytes(1));
}

TEST(DirectoryStoreTest, UnboundedPolicyOnFullStoreRejectsAdmission) {
  DirectoryStore store(CachePolicy::kUnbounded,
                       DirectoryStore::FootprintBytes(0));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  EXPECT_FALSE(store.Admit(2, 0, 0, &d));
  EXPECT_TRUE(d.evicted.empty());
  EXPECT_FALSE(store.Contains(2));
  EXPECT_TRUE(store.Contains(1));
}

TEST(DirectoryStoreTest, ExpiryIsNotAnEviction) {
  DirectoryStore store(CachePolicy::kLru,
                       8 * DirectoryStore::FootprintBytes(1));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  store.Update(1, {100}, {}, &d);
  ASSERT_TRUE(store.Admit(2, 3, 0, &d));  // one tick from T_dead = 4

  // AgeAll reports no Delta: expiry never reaches dir_index_evictions.
  store.AgeAll(4);
  EXPECT_FALSE(store.Contains(2)) << "entry 2 reached T_dead";
  EXPECT_EQ(store.bytes_used(), DirectoryStore::FootprintBytes(1));
  EXPECT_EQ(store.Find(1)->age, 1) << "survivors aged by one tick";
  ExpectHolderCountsConsistent(store);
}

TEST(DirectoryStoreTest, SetEntryStateOverwritesLifecycleFields) {
  DirectoryStore store;
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 900, &d));
  store.SetEntryState(1, 2, 100);  // a handoff knows the true history
  EXPECT_EQ(store.Find(1)->age, 2);
  EXPECT_EQ(store.Find(1)->joined_at, 100);
  store.SetEntryState(9, 1, 1);  // absent: no-op
  EXPECT_FALSE(store.Contains(9));
}

TEST(DirectoryStoreTest, TouchResetsAgeButProbeDoesNot) {
  DirectoryStore store;
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 2, 0, &d));
  store.Probe(1);
  EXPECT_EQ(store.Find(1)->age, 2) << "a probe is not a liveness signal";
  store.Touch(1);
  EXPECT_EQ(store.Find(1)->age, 0);
}

TEST(DirectoryStoreTest, LruKeepsRecentlyProbedEntries) {
  DirectoryStore store(CachePolicy::kLru,
                       2 * DirectoryStore::FootprintBytes(0));
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  store.Probe(1);  // an answered redirect: 2 is now the least recently used
  d = {};
  ASSERT_TRUE(store.Admit(3, 0, 0, &d));
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{2}));
}

TEST(DirectoryStoreTest, NeighborSummariesOwnedByStore) {
  DirectoryStore store;
  DirectoryStore::Delta d;
  store.PutSummary(7, DirectoryStore::NeighborSummary{42, 1, nullptr}, &d);
  store.PutSummary(9, DirectoryStore::NeighborSummary{42, 2, nullptr}, &d);
  store.PutSummary(11, DirectoryStore::NeighborSummary{43, 1, nullptr}, &d);
  EXPECT_TRUE(d.evicted.empty()) << "unbounded: accounting only";
  EXPECT_TRUE(store.HasSummaryFrom(7));
  EXPECT_EQ(store.summaries().size(), 3u);
  EXPECT_EQ(store.summary_bytes(),
            3 * DirectoryStore::kSummaryBaseBytes);
  store.EraseSummariesFrom(42);
  EXPECT_FALSE(store.HasSummaryFrom(7));
  EXPECT_FALSE(store.HasSummaryFrom(9));
  EXPECT_TRUE(store.HasSummaryFrom(11));
  EXPECT_EQ(store.summary_bytes(), DirectoryStore::kSummaryBaseBytes);
}

TEST(DirectoryStoreTest, SummariesByteAccountedAgainstIndexBudget) {
  // Budget fits exactly two empty entries; a stored neighbor summary
  // reserves part of it and squeezes entries out.
  const uint64_t capacity = 2 * DirectoryStore::FootprintBytes(0);
  DirectoryStore store(CachePolicy::kLru, capacity);
  DirectoryStore::Delta d;
  ASSERT_TRUE(store.Admit(1, 0, 0, &d));
  ASSERT_TRUE(store.Admit(2, 0, 0, &d));
  store.Probe(2);  // entry 1 is now the LRU victim

  // 32 objects x 8 bits = 256 filter bits = 32 bytes; footprint 64 —
  // exactly one entry's worth of budget.
  const SummaryRef summary =
      ContentSummary::Build(32, 8, 5, [](BloomFilter&) {});
  DirectoryStore::Delta put;
  store.PutSummary(7, DirectoryStore::NeighborSummary{42, 1, summary},
                   &put);
  const uint64_t expected_bytes =
      DirectoryStore::kSummaryBaseBytes + (summary->SizeBits() + 7) / 8;
  EXPECT_EQ(store.summary_bytes(), expected_bytes);
  ASSERT_EQ(put.evicted, (std::vector<PeerAddress>{1}))
      << "the summary reservation must evict the LRU index entry";
  EXPECT_TRUE(store.Contains(2));
  ExpectHolderCountsConsistent(store);

  // A replacement summary re-accounts instead of double-charging.
  DirectoryStore::Delta replace;
  store.PutSummary(7, DirectoryStore::NeighborSummary{42, 1, summary},
                   &replace);
  EXPECT_EQ(store.summary_bytes(), expected_bytes);
  EXPECT_TRUE(replace.evicted.empty());

  // Admission now has to fit beside the reservation.
  DirectoryStore::Delta more;
  ASSERT_TRUE(store.Admit(3, 0, 0, &more));
  EXPECT_EQ(more.evicted, (std::vector<PeerAddress>{2}));

  // Dropping the neighbor returns its bytes: both entries fit again.
  store.EraseSummariesFrom(42);
  EXPECT_EQ(store.summary_bytes(), 0u);
  DirectoryStore::Delta after;
  ASSERT_TRUE(store.Admit(4, 0, 0, &after));
  EXPECT_TRUE(after.evicted.empty());
}

TEST(DirectoryStoreTest, FromConfigReadsDirectoryIndexKeys) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("directory_index_policy", "lru").ok());
  ASSERT_TRUE(c.Apply("directory_index_capacity", "4096").ok());
  DirectoryStore store = DirectoryStore::FromConfig(c);
  EXPECT_EQ(store.capacity_bytes(), 4096u);
  EXPECT_TRUE(store.bounded());
  // An lru index evicts the oldest entry to admit a new one; an
  // unbounded-policy index of the same size would turn it away.
  DirectoryStore::Delta d;
  for (PeerAddress peer = 0; peer <= 4096 / DirectoryStore::FootprintBytes(0);
       ++peer) {
    ASSERT_TRUE(store.Admit(peer, 0, 0, &d)) << peer;
  }
  EXPECT_EQ(d.evicted, (std::vector<PeerAddress>{0}));

  ASSERT_TRUE(c.Apply("directory_index_capacity", "unbounded").ok());
  DirectoryStore unbounded = DirectoryStore::FromConfig(c);
  EXPECT_FALSE(unbounded.bounded());
}

// Reference model for the randomized test below: a std::map from address
// to entry, with holders derived by scanning it (ExpectMatchesModel
// compares them with the store's holder index, so a slot whose last
// holder left must be gone from holder_slots()). The model does its own
// footprint accounting and keeps a recency order, so it predicts every
// capacity victim: a bounded LRU store evicts its least recently
// admitted, touched or probed entry, and a bounded unbounded-policy
// store turns newcomers away and lets a grown entry evict itself.
class DirectoryStoreModel {
 public:
  struct Entry {
    int age = 0;
    SimTime joined_at = 0;
    std::set<ObjectSlot> objects;
  };

  DirectoryStoreModel(uint64_t capacity_bytes, bool lru)
      : capacity_bytes_(capacity_bytes), lru_(lru) {}

  std::map<PeerAddress, Entry> entries;

  int Holders(ObjectSlot slot) const {
    int n = 0;
    for (const auto& [addr, e] : entries) n += e.objects.count(slot) > 0;
    return n;
  }

  uint64_t BytesUsed() const {
    uint64_t bytes = 0;
    for (const auto& [addr, e] : entries) {
      bytes += DirectoryStore::FootprintBytes(e.objects.size());
    }
    return bytes;
  }

  /// Admission (Admit and its re-admission), Touch and Probe make an
  /// entry the most recently used; Update's resize does not.
  void Refresh(PeerAddress peer) {
    if (entries.count(peer) == 0) return;
    Forget(peer);
    recency_.push_back(peer);
  }

  void Drop(PeerAddress peer) {
    entries.erase(peer);
    Forget(peer);
  }

  /// Admits a new empty entry, evicting LRU victims into `delta` first.
  /// Returns false when the store must turn it away.
  bool Admit(PeerAddress peer, int age, SimTime joined_at,
             DirectoryStore::Delta* delta) {
    const uint64_t size = DirectoryStore::FootprintBytes(0);
    if (capacity_bytes_ > 0) {
      if (size > capacity_bytes_) return false;
      while (BytesUsed() + size > capacity_bytes_) {
        if (!lru_) return false;
        Evict(recency_.front(), delta);
      }
    }
    entries[peer] = {age, joined_at, {}};
    recency_.push_back(peer);
    return true;
  }

  /// Re-fits the store after `peer`'s entry changed size: an entry that
  /// alone exceeds the budget evicts only itself; otherwise LRU victims
  /// (possibly `peer` itself) leave until the store fits, and without an
  /// eviction order the grown entry is the one to go.
  void FitAfterResize(PeerAddress peer, DirectoryStore::Delta* delta) {
    if (capacity_bytes_ == 0) return;
    const uint64_t size =
        DirectoryStore::FootprintBytes(entries.at(peer).objects.size());
    if (size > capacity_bytes_) {
      Evict(peer, delta);
      return;
    }
    while (BytesUsed() > capacity_bytes_) {
      const PeerAddress victim = lru_ ? recency_.front() : peer;
      Evict(victim, delta);
      if (victim == peer) return;
    }
  }

 private:
  void Forget(PeerAddress peer) {
    recency_.erase(std::remove(recency_.begin(), recency_.end(), peer),
                   recency_.end());
  }

  void Evict(PeerAddress victim, DirectoryStore::Delta* delta) {
    Drop(victim);
    delta->evicted.push_back(victim);
  }

  uint64_t capacity_bytes_;
  bool lru_;
  std::vector<PeerAddress> recency_;  // least recently used first
};

void ExpectDeltaEq(const DirectoryStore::Delta& actual,
                   const DirectoryStore::Delta& expected) {
  EXPECT_EQ(actual.new_slots, expected.new_slots);
  EXPECT_EQ(actual.evicted, expected.evicted);
}

/// Compares every observable of `store` against `model`.
void ExpectMatchesModel(const DirectoryStore& store,
                        const DirectoryStoreModel& model,
                        PeerAddress max_addr, ObjectSlot max_slot) {
  ASSERT_EQ(store.size(), model.entries.size());
  auto it = model.entries.begin();
  uint64_t bytes = 0;
  for (const auto& [addr, entry] : store.entries()) {
    ASSERT_EQ(addr, it->first);
    EXPECT_EQ(entry.age, it->second.age) << "addr " << addr;
    EXPECT_EQ(entry.joined_at, it->second.joined_at) << "addr " << addr;
    EXPECT_EQ(entry.objects, (std::vector<ObjectSlot>(
                                 it->second.objects.begin(),
                                 it->second.objects.end())))
        << "addr " << addr;
    bytes += DirectoryStore::FootprintBytes(it->second.objects.size());
    ++it;
  }
  EXPECT_EQ(store.bytes_used(), bytes);
  if (store.bounded()) {
    EXPECT_LE(store.bytes_used(), store.capacity_bytes());
  }
  for (PeerAddress addr = 0; addr <= max_addr; ++addr) {
    const DirectoryStore::Entry* found = store.Find(addr);
    auto m = model.entries.find(addr);
    ASSERT_EQ(found != nullptr, m != model.entries.end()) << "addr " << addr;
    if (found == nullptr) continue;
    EXPECT_EQ(found->age, m->second.age) << "addr " << addr;
    EXPECT_EQ(found->joined_at, m->second.joined_at) << "addr " << addr;
    EXPECT_EQ(found->objects.size(), m->second.objects.size())
        << "addr " << addr;
  }
  std::vector<ObjectSlot> held;
  for (ObjectSlot slot = 0; slot <= max_slot; ++slot) {
    std::vector<PeerAddress> holders;
    for (const auto& [addr, e] : model.entries) {
      if (e.objects.count(slot) > 0) holders.push_back(addr);
    }
    const std::vector<PeerAddress>* actual = store.HoldersOf(slot);
    if (holders.empty()) {
      EXPECT_EQ(actual, nullptr) << "slot " << slot;
      continue;
    }
    held.push_back(slot);
    ASSERT_NE(actual, nullptr) << "slot " << slot;
    EXPECT_EQ(*actual, holders) << "slot " << slot;
  }
  EXPECT_EQ(store.holder_slots(), held);
  ExpectHolderCountsConsistent(store);
}

/// A few thousand random Admit / Update / Erase / Touch / Probe / AgeAll
/// operations over a small address space, so entries are erased and
/// their pool positions reused many times over; on a bounded store the
/// same mix also forces capacity evictions, each one predicted by the
/// model.
void RunModelCheck(DirectoryStore* store, bool lru, uint64_t seed) {
  constexpr PeerAddress kMaxAddr = 79;
  constexpr ObjectSlot kMaxSlot = 63;
  constexpr int kDeadAge = 6;
  Rng rng(seed);
  DirectoryStoreModel model(store->capacity_bytes(), lru);
  auto random_slots = [&](int max_len) {
    std::vector<ObjectSlot> out;
    const int len = static_cast<int>(rng.UniformInt(0, max_len));
    for (int k = 0; k < len; ++k) {
      out.push_back(rng.Bernoulli(0.05)
                        ? kInvalidSlot
                        : static_cast<ObjectSlot>(rng.Index(kMaxSlot + 1)));
    }
    return out;
  };
  uint64_t evictions = 0;
  for (int step = 0; step < 4000; ++step) {
    const PeerAddress peer =
        static_cast<PeerAddress>(rng.Index(kMaxAddr + 1));
    const uint64_t op = rng.Index(100);
    DirectoryStore::Delta actual;
    DirectoryStore::Delta expected;
    std::string what;
    if (op < 30) {
      what = "Admit";
      const int age = static_cast<int>(rng.Index(kDeadAge));
      const SimTime joined = step;
      const bool admitted = store->Admit(peer, age, joined, &actual);
      if (model.entries.count(peer) > 0) {
        EXPECT_TRUE(admitted);
        model.entries[peer].age = 0;  // a re-admission is a touch
        model.Refresh(peer);
      } else {
        EXPECT_EQ(admitted, model.Admit(peer, age, joined, &expected));
      }
    } else if (op < 75) {
      what = "Update";
      const std::vector<ObjectSlot> add = random_slots(10);
      const std::vector<ObjectSlot> remove = random_slots(3);
      store->Update(peer, add, remove, &actual);
      auto it = model.entries.find(peer);
      if (it != model.entries.end()) {
        for (ObjectSlot slot : add) {
          if (slot == kInvalidSlot || !it->second.objects.insert(slot).second) {
            continue;
          }
          if (model.Holders(slot) == 1) expected.new_slots.push_back(slot);
        }
        for (ObjectSlot slot : remove) it->second.objects.erase(slot);
        model.FitAfterResize(peer, &expected);
      }
    } else if (op < 83) {
      what = "Erase";
      store->Erase(peer);
      model.Drop(peer);
    } else if (op < 93) {
      what = "Touch";
      store->Touch(peer);
      auto it = model.entries.find(peer);
      if (it != model.entries.end()) it->second.age = 0;
      model.Refresh(peer);
    } else if (op < 98) {
      what = "Probe";
      store->Probe(peer);
      model.Refresh(peer);
    } else {
      what = "AgeAll";
      store->AgeAll(kDeadAge);
      std::vector<PeerAddress> dead;
      for (auto& [addr, e] : model.entries) {
        if (++e.age >= kDeadAge) dead.push_back(addr);
      }
      for (PeerAddress addr : dead) model.Drop(addr);
    }
    SCOPED_TRACE(testing::Message() << "step " << step << " " << what
                                    << " peer " << peer);
    evictions += actual.evicted.size();
    ExpectDeltaEq(actual, expected);
    ExpectMatchesModel(*store, model, kMaxAddr, kMaxSlot);
    if (::testing::Test::HasFailure()) return;
  }
  if (store->bounded()) {
    EXPECT_GT(evictions, 0u) << "the bounded run must reach capacity";
  } else {
    EXPECT_EQ(evictions, 0u);
  }
}

TEST(DirectoryStoreTest, RandomOpsMatchMapModelUnbounded) {
  DirectoryStore store;
  RunModelCheck(&store, /*lru=*/false, 2024);
}

TEST(DirectoryStoreTest, RandomOpsMatchMapModelWith4KbLruIndex) {
  DirectoryStore store(CachePolicy::kLru, 4096);
  RunModelCheck(&store, /*lru=*/true, 2025);
}

}  // namespace
}  // namespace flower
