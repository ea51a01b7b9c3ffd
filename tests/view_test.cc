#include "gossip/view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace flower {
namespace {

ViewEntry E(PeerAddress addr, int age) {
  ViewEntry e;
  e.addr = addr;
  e.age = age;
  return e;
}

TEST(ViewTest, InsertAndFind) {
  View v(5);
  v.Merge({E(1, 0)}, std::nullopt, /*self=*/99);
  EXPECT_TRUE(v.Contains(1));
  EXPECT_FALSE(v.Contains(2));
  EXPECT_EQ(v.size(), 1u);
}

TEST(ViewTest, SelfNeverInserted) {
  View v(5);
  v.Merge({E(99, 0)}, std::nullopt, /*self=*/99);
  EXPECT_TRUE(v.empty());
}

TEST(ViewTest, IncrementAges) {
  View v(5);
  v.Merge({E(1, 0), E(2, 3)}, std::nullopt, 99);
  v.IncrementAges();
  EXPECT_EQ(v.Find(1)->age, 1);
  EXPECT_EQ(v.Find(2)->age, 4);
}

TEST(ViewTest, SelectOldestPicksMaxAge) {
  View v(5);
  v.Merge({E(1, 2), E(2, 7), E(3, 4)}, std::nullopt, 99);
  ASSERT_NE(v.SelectOldest(), nullptr);
  EXPECT_EQ(v.SelectOldest()->addr, 2u);
}

TEST(ViewTest, SelectOldestEmptyReturnsNull) {
  View v(5);
  EXPECT_EQ(v.SelectOldest(), nullptr);
}

TEST(ViewTest, SelectSubsetExcludesAndBounds) {
  View v(10);
  v.Merge({E(1, 0), E(2, 0), E(3, 0), E(4, 0), E(5, 0), E(6, 0), E(7, 0),
           E(8, 0)},
          std::nullopt, 99);
  Rng rng(1);
  auto subset = v.SelectSubset(4, &rng, /*exclude=*/3);
  EXPECT_EQ(subset.size(), 4u);
  for (const auto& e : subset) EXPECT_NE(e.addr, 3u);
}

TEST(ViewTest, SelectSubsetWhenFewerThanRequested) {
  View v(10);
  v.Merge({E(1, 0)}, std::nullopt, 99);
  Rng rng(1);
  EXPECT_EQ(v.SelectSubset(5, &rng, kInvalidAddress).size(), 1u);
}

TEST(ViewTest, MergeKeepsFreshestDuplicate) {
  View v(5);
  v.Merge({E(1, 5)}, std::nullopt, 99);
  v.Merge({E(1, 2)}, std::nullopt, 99);
  EXPECT_EQ(v.Find(1)->age, 2);
  // A staler duplicate must not replace a fresher entry.
  v.Merge({E(1, 9)}, std::nullopt, 99);
  EXPECT_EQ(v.Find(1)->age, 2);
}

TEST(ViewTest, MergeCapacityKeepsMostRecent) {
  View v(3);
  v.Merge({E(1, 9), E(2, 1), E(3, 5), E(4, 2), E(5, 7)}, std::nullopt, 99);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.Contains(2));
  EXPECT_TRUE(v.Contains(4));
  EXPECT_TRUE(v.Contains(3));
  EXPECT_FALSE(v.Contains(5));
  EXPECT_FALSE(v.Contains(1));
}

TEST(ViewTest, MergeFreshEntryWins) {
  View v(2);
  v.Merge({E(1, 4), E(2, 6)}, std::nullopt, 99);
  ViewEntry fresh = E(7, 0);
  v.Merge({}, fresh, 99);
  EXPECT_TRUE(v.Contains(7));
  EXPECT_TRUE(v.Contains(1));
  EXPECT_FALSE(v.Contains(2));  // oldest evicted
}

TEST(ViewTest, MergePrefersInstanceWithSummaryOnTie) {
  View v(5);
  v.Merge({E(1, 3)}, std::nullopt, 99);
  ViewEntry with_summary = E(1, 3);
  with_summary.summary = ContentSummary::Build(10, 8, 3, [](BloomFilter&) {});
  v.Merge({with_summary}, std::nullopt, 99);
  EXPECT_NE(v.Find(1)->summary, nullptr);
}

TEST(ViewTest, RemoveEntry) {
  View v(5);
  v.Merge({E(1, 0)}, std::nullopt, 99);
  EXPECT_TRUE(v.Remove(1));
  EXPECT_FALSE(v.Remove(1));
  EXPECT_TRUE(v.empty());
}

TEST(ViewTest, WireBitsAccountsForSummary) {
  ViewEntry plain = E(1, 0);
  EXPECT_EQ(plain.WireBits(), kAddressBits + kAgeBits);
  ViewEntry with_summary = E(1, 0);
  with_summary.summary =
      ContentSummary::Build(500, 8, 5, [](BloomFilter&) {});
  EXPECT_EQ(with_summary.WireBits(), kAddressBits + kAgeBits + 4000);
}

// The view's semantics as a plain merge: upsert each entry by address
// (keeping the lower age, or on a tie the first instance with a summary),
// append new contacts, stable-sort by (age, addr), truncate. View keeps
// its entries sorted and bounded instead; both must hold the same entries
// in the same order after every call.
class ReferenceView {
 public:
  ReferenceView(int capacity, int max_age)
      : capacity_(capacity), max_age_(max_age) {}

  const std::vector<ViewEntry>& entries() const { return entries_; }

  void Merge(const std::vector<ViewEntry>& received,
             const std::optional<ViewEntry>& fresh, PeerAddress self) {
    auto upsert = [this, self](const ViewEntry& e) {
      if (e.addr == self || e.addr == kInvalidAddress) return;
      if (e.age > max_age_) return;
      for (auto& cur : entries_) {
        if (cur.addr == e.addr) {
          if (e.age < cur.age ||
              (e.age == cur.age && !cur.summary && e.summary)) {
            cur = e;
          }
          return;
        }
      }
      entries_.push_back(e);
    };
    for (const auto& e : received) upsert(e);
    if (fresh.has_value()) upsert(*fresh);
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const ViewEntry& a, const ViewEntry& b) {
                       if (a.age != b.age) return a.age < b.age;
                       return a.addr < b.addr;
                     });
    if (entries_.size() > static_cast<size_t>(capacity_)) {
      entries_.resize(static_cast<size_t>(capacity_));
    }
  }

  bool Remove(PeerAddress addr) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].addr == addr) {
        entries_.erase(entries_.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }

  void IncrementAges() {
    for (auto& e : entries_) ++e.age;
  }

  size_t DropOlderThan(int max_age) {
    const size_t before = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [max_age](const ViewEntry& e) {
                                    return e.age > max_age;
                                  }),
                   entries_.end());
    return before - entries_.size();
  }

  const ViewEntry* SelectOldest() const {
    const ViewEntry* best = nullptr;
    for (const auto& e : entries_) {
      if (best == nullptr || e.age > best->age ||
          (e.age == best->age && e.addr < best->addr)) {
        best = &e;
      }
    }
    return best;
  }

  std::vector<ViewEntry> SelectSubset(int count, Rng* rng,
                                      PeerAddress exclude) const {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].addr != exclude) eligible.push_back(i);
    }
    std::vector<ViewEntry> out;
    for (size_t c : rng->SampleIndices(
             eligible.size(), static_cast<size_t>(std::max(count, 0)))) {
      out.push_back(entries_[eligible[c]]);
      out.back().age += 1;
    }
    return out;
  }

 private:
  int capacity_;
  int max_age_;
  std::vector<ViewEntry> entries_;
};

std::string Describe(const std::vector<ViewEntry>& entries) {
  std::string out;
  for (const ViewEntry& e : entries) {
    out += "(" + std::to_string(e.addr) + "," + std::to_string(e.age) +
           (e.summary ? ",s" : "") + ")";
  }
  return out;
}

void ExpectSameEntries(const std::vector<ViewEntry>& want,
                       const std::vector<ViewEntry>& got,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size())
      << where << "\nwant " << Describe(want) << "\ngot  " << Describe(got);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << where << " at " << i;
    ASSERT_EQ(got[i].age, want[i].age) << where << " at " << i;
    ASSERT_EQ(got[i].summary.get(), want[i].summary.get())
        << where << " at " << i;
  }
}

void ExpectInvariants(const View& view, const std::string& where) {
  const std::vector<ViewEntry>& entries = view.entries();
  ASSERT_LE(entries.size(), static_cast<size_t>(view.capacity())) << where;
  ASSERT_LE(entries.capacity(), static_cast<size_t>(view.capacity()))
      << where;
  for (size_t i = 1; i < entries.size(); ++i) {
    const ViewEntry& a = entries[i - 1];
    const ViewEntry& b = entries[i];
    ASSERT_TRUE(a.age < b.age || (a.age == b.age && a.addr < b.addr))
        << where << ": out of order at " << i;
  }
  std::vector<PeerAddress> addrs;
  for (const ViewEntry& e : entries) addrs.push_back(e.addr);
  std::sort(addrs.begin(), addrs.end());
  ASSERT_EQ(std::adjacent_find(addrs.begin(), addrs.end()), addrs.end())
      << where << ": duplicate address";
}

TEST(ViewEquivalenceTest, RandomCallsMatchMergeSortTruncate) {
  constexpr PeerAddress kSelf = 7;
  // Few addresses, so batches repeat them; few ages, so ties abound.
  constexpr PeerAddress kAddresses = 24;
  const std::vector<SummaryRef> summaries = {
      nullptr, ContentSummary::Build(50, 8, 3, [](BloomFilter&) {}),
      ContentSummary::Build(50, 8, 3, [](BloomFilter&) {}), nullptr};
  Rng rng(20240607);
  int calls = 0;
  int welcomes_into_empty = 0;
  int welcomes_into_full_aged = 0;
  for (int capacity : {1, 2, 5, 16, 50}) {
    for (int max_age : {3, 12, std::numeric_limits<int>::max()}) {
      const int age_span = max_age == std::numeric_limits<int>::max()
                               ? 8
                               : max_age + 3;  // some entries too old
      auto draw = [&]() {
        ViewEntry e;
        const size_t pick = rng.Index(40);
        e.addr = pick == 0   ? kSelf
                 : pick == 1 ? kInvalidAddress
                             : static_cast<PeerAddress>(rng.Index(kAddresses));
        e.age = static_cast<int>(rng.Index(static_cast<size_t>(age_span)));
        e.summary = summaries[rng.Index(summaries.size())];
        return e;
      };
      View view(capacity, max_age);
      ReferenceView ref(capacity, max_age);
      for (int step = 0; step < 400; ++step, ++calls) {
        const std::string where = "capacity " + std::to_string(capacity) +
                                  " max_age " + std::to_string(max_age) +
                                  " step " + std::to_string(step);
        switch (rng.Index(8)) {
          case 0:
          case 1:
          case 2: {
            // Up to twice the capacity plus a few, so some batches
            // overflow it.
            std::vector<ViewEntry> batch;
            const size_t n = rng.Index(static_cast<size_t>(2 * capacity + 4));
            for (size_t i = 0; i < n; ++i) batch.push_back(draw());
            std::optional<ViewEntry> fresh;
            if (rng.Bernoulli(0.5)) fresh = draw();
            view.Merge(batch, fresh, kSelf);
            ref.Merge(batch, fresh, kSelf);
            break;
          }
          case 3: {
            // A directory's welcome: distinct ascending addresses, age 0,
            // no summary, up to twice the capacity. Its addresses reach
            // past the other batches' so that it can fill a view.
            std::vector<size_t> picks = rng.SampleIndices(
                kAddresses + 2 * static_cast<size_t>(capacity),
                rng.Index(2 * static_cast<size_t>(capacity) + 1));
            std::sort(picks.begin(), picks.end());
            std::vector<ViewEntry> welcome;
            for (size_t a : picks) {
              const auto addr = static_cast<PeerAddress>(a);
              if (addr != kSelf) welcome.push_back(E(addr, 0));
            }
            if (view.empty()) ++welcomes_into_empty;
            if (view.size() == static_cast<size_t>(capacity) &&
                view.entries().front().age > 0) {
              ++welcomes_into_full_aged;
            }
            view.Merge(welcome, std::nullopt, kSelf);
            ref.Merge(welcome, std::nullopt, kSelf);
            break;
          }
          case 4: {
            const PeerAddress a =
                static_cast<PeerAddress>(rng.Index(kAddresses));
            ASSERT_EQ(view.Remove(a), ref.Remove(a)) << where;
            break;
          }
          case 5:
            view.IncrementAges();
            ref.IncrementAges();
            break;
          case 6: {
            // -1 empties the view, so the next merge fills an empty one.
            const int limit =
                static_cast<int>(rng.Index(static_cast<size_t>(age_span) + 1)) -
                1;
            ASSERT_EQ(view.DropOlderThan(limit), ref.DropOlderThan(limit))
                << where;
            break;
          }
          default: {
            const ViewEntry* want = ref.SelectOldest();
            const ViewEntry* got = view.SelectOldest();
            ASSERT_EQ(got == nullptr, want == nullptr) << where;
            if (want != nullptr) {
              ASSERT_EQ(got->addr, want->addr) << where;
            }
            const PeerAddress exclude =
                rng.Bernoulli(0.5) && want != nullptr
                    ? want->addr
                    : static_cast<PeerAddress>(rng.Index(kAddresses));
            const int count = static_cast<int>(rng.Index(12));
            Rng want_rng(static_cast<uint64_t>(step));
            Rng got_rng(static_cast<uint64_t>(step));
            ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(
                ref.SelectSubset(count, &want_rng, exclude),
                view.SelectSubset(count, &got_rng, exclude),
                where + " subset"));
            ASSERT_EQ(got_rng.Next(), want_rng.Next()) << where;
            break;
          }
        }
        ASSERT_NO_FATAL_FAILURE(
            ExpectSameEntries(ref.entries(), view.entries(), where));
        ASSERT_NO_FATAL_FAILURE(ExpectInvariants(view, where));
      }
    }
  }
  EXPECT_EQ(calls, 6000);
  // 31 and 199 with this seed; every capacity, 50 included, has some of
  // the second kind.
  EXPECT_GT(welcomes_into_empty, 10);
  EXPECT_GT(welcomes_into_full_aged, 100);
}

}  // namespace
}  // namespace flower
