#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "bloom/summary.h"
#include "common/rng.h"
#include "gossip/view.h"

// Counts global allocations, their bytes and frees so a test can assert
// that a code path makes none, how large what it makes is, or when memory
// is released. Only this test binary replaces the global operator new.
// Kept out of line so gcc does not pair an inlined new with the free()
// below and warn about a mismatch.
namespace {
std::atomic<long> g_allocations{0};
std::atomic<long> g_allocated_bytes{0};
std::atomic<long> g_deallocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long>(size),
                              std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

namespace flower {
namespace {

TEST(BloomFilterTest, EmptyContainsNothing) {
  BloomFilter f(1024, 5);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(f.MaybeContains(k));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter f(4000, 5);
  for (uint64_t k = 1000; k < 1500; ++k) f.Add(k);
  for (uint64_t k = 1000; k < 1500; ++k) {
    EXPECT_TRUE(f.MaybeContains(k)) << k;
  }
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter f(256, 3);
  f.Add(7);
  EXPECT_TRUE(f.MaybeContains(7));
  f.Clear();
  EXPECT_FALSE(f.MaybeContains(7));
  EXPECT_EQ(f.num_insertions(), 0u);
  EXPECT_EQ(f.CountSetBits(), 0u);
}

TEST(BloomFilterTest, UnionContainsBoth) {
  BloomFilter a(512, 4), b(512, 4);
  a.Add(1);
  b.Add(2);
  a.UnionWith(b);
  EXPECT_TRUE(a.MaybeContains(1));
  EXPECT_TRUE(a.MaybeContains(2));
}

TEST(BloomFilterTest, EqualityAfterSameInsertions) {
  BloomFilter a(512, 4), b(512, 4);
  a.Add(10);
  a.Add(20);
  b.Add(20);
  b.Add(10);
  EXPECT_TRUE(a == b);
}

// Property sweep across geometries: the empirical false-positive rate stays
// near (and not wildly above) the analytic (1 - e^{-kn/m})^k bound. The
// paper sizes summaries at 8 bits/object per Fan et al.
class BloomFpTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BloomFpTest, FalsePositiveRateNearAnalytic) {
  auto [bits_per_key, num_hashes, num_keys] = GetParam();
  BloomFilter f(static_cast<size_t>(bits_per_key * num_keys), num_hashes);
  for (int k = 0; k < num_keys; ++k) {
    f.Add(Mix64(static_cast<uint64_t>(k)));
  }
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    uint64_t probe = Mix64(0xABCDEF00ULL + static_cast<uint64_t>(i));
    if (f.MaybeContains(probe)) ++fp;
  }
  double rate = static_cast<double>(fp) / probes;
  double analytic = f.EstimatedFpRate();
  EXPECT_LT(rate, analytic * 2 + 0.01)
      << "bits/key=" << bits_per_key << " k=" << num_hashes;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomFpTest,
    ::testing::Combine(::testing::Values(4, 8, 16),   // bits per key
                       ::testing::Values(3, 5, 7),    // hash functions
                       ::testing::Values(100, 500))); // keys

// Bit positions are part of the output contract: summaries, false
// positives and therefore every run's trajectory depend on them. These
// counts were recorded from the original per-call double-hashing code
// (keys 1000.. inserted, keys 100000..199999 probed).
TEST(BloomFilterTest, PositionsMatchRecordedGoldens) {
  struct Golden {
    size_t bits;
    int hashes;
    int keys;
    size_t set_bits;
    int positives;
  };
  const Golden goldens[] = {{4000, 5, 500, 1865, 2143},
                            {4000, 2, 2000, 2548, 40454},
                            {1000, 3, 100, 256, 1586},
                            {64, 7, 10, 41, 5060},
                            {4001, 16, 300, 2791, 314}};
  for (const Golden& g : goldens) {
    BloomFilter f(g.bits, g.hashes);
    for (int i = 0; i < g.keys; ++i) f.Add(1000 + static_cast<uint64_t>(i));
    int positives = 0;
    for (uint64_t p = 100000; p < 200000; ++p) positives += f.MaybeContains(p);
    EXPECT_EQ(f.CountSetBits(), g.set_bits) << g.bits << "/" << g.hashes;
    EXPECT_EQ(positives, g.positives) << g.bits << "/" << g.hashes;
  }
}

TEST(BloomFilterTest, OutOfRangeGeometryIsFatal) {
  // A probe caches at most kMaxHashes positions; a config that bypasses
  // SimConfig::Apply must die instead of writing past them.
  EXPECT_DEATH(BloomFilter(64, BloomProbe::kMaxHashes + 1), "fatal");
  EXPECT_DEATH(BloomFilter(64, 0), "fatal");
  EXPECT_DEATH(BloomFilter(0, 5), "fatal");
}

TEST(BloomProbeTest, SingleHashPositionIsMix64ModBits) {
  // With k = 1 the only position is h1 mod m, h1 = Mix64(key).
  const size_t m = 997;
  BloomFilter f(m, 1);
  f.Add(42);
  for (uint64_t key = 0; key < 5000; ++key) {
    EXPECT_EQ(f.MaybeContains(BloomProbe(key)),
              Mix64(key) % m == Mix64(42) % m)
        << key;
  }
}

TEST(BloomProbeTest, OneProbeAcrossGeometriesMatchesFreshProbes) {
  // A view mixes filter sizes only in tests, but the probe must stay exact
  // when its cached positions belong to another size or to more or fewer
  // hashes.
  const std::vector<std::pair<size_t, int>> geometries = {
      {4000, 5}, {4000, 3}, {4000, 7}, {1000, 5}, {4000, 5}, {64, 16}};
  std::vector<BloomFilter> filters;
  for (const auto& [bits, hashes] : geometries) {
    filters.emplace_back(bits, hashes);
    for (uint64_t k = 0; k < 200; ++k) filters.back().Add(Mix64(k) % 700);
  }
  for (uint64_t key = 0; key < 700; ++key) {
    const BloomProbe probe(key);
    for (const BloomFilter& f : filters) {
      EXPECT_EQ(f.MaybeContains(probe), f.MaybeContains(key))
          << key << " in " << f.num_bits() << "/" << f.num_hashes();
    }
  }
}

TEST(BloomProbeTest, ProbesAndAddsDoNotAllocate) {
  // The query path's shape: one object against a view of 50 summaries.
  std::vector<SummaryRef> view;
  for (uint64_t s = 0; s < 50; ++s) {
    view.push_back(ContentSummary::Build(500, 8, 5, [s](BloomFilter& f) {
      for (uint64_t k = 0; k < 100; ++k) f.Add(s * 1000 + k);
    }));
  }
  BloomFilter scratch(4000, 5);
  const long before = g_allocations.load();
  int hits = 0;
  for (uint64_t object = 0; object < 2000; ++object) {
    const BloomProbe probe(object);
    for (const auto& summary : view) hits += summary->MaybeContains(probe);
    hits += view.front()->MaybeContains(object);
    scratch.Add(object);
  }
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_GT(hits, 0);
}

SummaryRef Summarize(int capacity, int bits_per_object, int num_hashes,
                     const std::vector<uint64_t>& ids) {
  return ContentSummary::Build(capacity, bits_per_object, num_hashes,
                               [&ids](BloomFilter& f) {
                                 for (uint64_t id : ids) f.Add(id);
                               });
}

TEST(ContentSummaryTest, SizeMatchesPaperRule) {
  // Table 1: summary size = 8 * nb_objects bits, whatever the summary
  // holds or how it is stored.
  EXPECT_EQ(Summarize(500, 8, 5, {})->SizeBits(), 4000u);
  EXPECT_EQ(Summarize(500, 8, 5, {1, 2, 3})->SizeBits(), 4000u);
}

TEST(ContentSummaryTest, RebuildReplacesContents) {
  // Every build on a thread fills the same scratch filter: a new build
  // starts empty, and an earlier snapshot keeps what it had.
  const SummaryRef first = Summarize(100, 8, 5, {1});
  const SummaryRef second = Summarize(100, 8, 5, {2, 3});
  EXPECT_FALSE(second->MaybeContains(1));
  EXPECT_TRUE(second->MaybeContains(2));
  EXPECT_TRUE(second->MaybeContains(3));
  EXPECT_TRUE(first->MaybeContains(1));
  EXPECT_FALSE(first->MaybeContains(2));
}

TEST(ContentSummaryTest, MinimumCapacityIsSafe) {
  // Degenerate capacity clamps to 1 object.
  const SummaryRef s = Summarize(0, 8, 5, {42});
  EXPECT_EQ(s->SizeBits(), 8u);
  EXPECT_TRUE(s->MaybeContains(42));
}

// The compact layout must answer exactly as the dense filter it was
// packed from: every run's trajectory depends on these answers. Fills go
// from empty to saturated (8m/k ids leave ~0.03% of the bits clear); the
// last geometry has 75,000 filter bytes, so at saturation the packed
// ranks pass 16 bits.
TEST(ContentSummaryTest, MatchesDenseFilterFromEmptyToSaturated) {
  const std::pair<size_t, int> geometries[] = {
      {4000, 5}, {16000, 5}, {64, 16}, {1, 1}, {600000, 5}};
  Rng rng(29);
  for (const auto& [bits, hashes] : geometries) {
    const size_t per_hash = bits / static_cast<size_t>(hashes);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, per_hash / 8,
                     per_hash, 8 * per_hash}) {
      std::vector<uint64_t> ids(n);
      for (uint64_t& id : ids) id = rng.Next();
      BloomFilter dense(bits, hashes);
      for (uint64_t id : ids) dense.Add(id);
      const SummaryRef summary =
          Summarize(static_cast<int>(bits), 1, hashes, ids);
      ASSERT_EQ(summary->SizeBits(), bits);
      int mismatches = 0;
      int positives = 0;
      for (uint64_t key = 0; key < 50000; ++key) {
        const bool expected = dense.MaybeContains(key);
        positives += expected;
        mismatches += summary->MaybeContains(BloomProbe(key)) != expected;
      }
      for (uint64_t id : ids) mismatches += !summary->MaybeContains(id);
      EXPECT_EQ(mismatches, 0)
          << bits << "/" << hashes << " with " << n << " ids";
      if (n == 0) {
        EXPECT_EQ(positives, 0);
      } else if (n == 8 * per_hash) {
        EXPECT_GT(positives, 49000);
      }
    }
  }
}

TEST(ContentSummaryTest, LowFillSummaryIsOneSmallBlock) {
  // Scale100k's summaries hold about 11 set bits. Two objects set at
  // most ten of m = 4000: a 16-byte header, 64 bytes of presence, 32 of
  // ranks and at most ten packed bytes, in one block. A dense fallback
  // would need the filter's 500 bytes.
  Summarize(500, 8, 5, {});  // the thread's scratch exists from here on
  const std::vector<uint64_t> ids = {1, 2};
  const long allocations = g_allocations.load();
  const long bytes = g_allocated_bytes.load();
  const SummaryRef s = Summarize(500, 8, 5, ids);
  const long made = g_allocations.load() - allocations;
  const long made_bytes = g_allocated_bytes.load() - bytes;
  EXPECT_EQ(made, 1);
  EXPECT_LE(made_bytes, 128);
  EXPECT_TRUE(s->MaybeContains(1));
  EXPECT_TRUE(s->MaybeContains(2));
}

static_assert(sizeof(SummaryRef) == sizeof(void*));

TEST(SummaryRefTest, CopiesShareOneSummary) {
  SummaryRef a = Summarize(500, 8, 5, {});
  EXPECT_EQ(a.use_count(), 1u);
  SummaryRef b = a;
  SummaryRef c;
  c = b;
  EXPECT_EQ(b.get(), a.get());
  EXPECT_EQ(c.get(), a.get());
  EXPECT_EQ(a.use_count(), 3u);
  c = nullptr;
  EXPECT_FALSE(c);
  EXPECT_EQ(a.use_count(), 2u);
}

TEST(SummaryRefTest, MoveEmptiesItsSource) {
  SummaryRef a = Summarize(500, 8, 5, {});
  const ContentSummary* raw = a.get();
  SummaryRef b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the point
  EXPECT_EQ(a.use_count(), 0u);
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(b.use_count(), 1u);
  SummaryRef c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.get(), raw);
  EXPECT_EQ(c.use_count(), 1u);
}

TEST(SummaryRefTest, LastReleaseFreesTheSummary) {
  SummaryRef a = Summarize(500, 8, 5, {7});
  const long frees = g_deallocations.load();
  {
    SummaryRef b = a;
    SummaryRef c = b;
    EXPECT_EQ(a.use_count(), 3u);
  }
  // Every other handle is gone; the summary is not.
  EXPECT_EQ(g_deallocations.load() - frees, 0);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->SizeBits(), 4000u);
  a = nullptr;
  // The summary's one block.
  EXPECT_EQ(g_deallocations.load() - frees, 1);
}

ViewEntry Contact(PeerAddress addr, int age, SummaryRef summary = nullptr) {
  ViewEntry e;
  e.addr = addr;
  e.age = age;
  e.summary = std::move(summary);
  return e;
}

TEST(ViewAllocationTest, GossipRoundOnAFullViewDoesNotAllocate) {
  // A content peer's steady state: a full view of V_gossip = 50, rounds
  // of age, expire, pick the partner, and merge a reply of L_gossip = 10
  // entries plus the partner's fresh entry.
  const PeerAddress self = 1000;
  View view(50, /*max_age=*/12);
  const SummaryRef summary = Summarize(500, 8, 5, {});
  std::vector<ViewEntry> seed;
  for (PeerAddress a = 0; a < 50; ++a) {
    seed.push_back(Contact(a, static_cast<int>(a % 7),
                           a % 3 == 0 ? summary : nullptr));
  }
  view.Merge(seed, std::nullopt, self);
  ASSERT_EQ(view.size(), 50u);

  // Replies prepared up front: new contacts that evict, refreshes of held
  // ones, summary-on-tie swaps, self and dead entries.
  std::vector<std::vector<ViewEntry>> replies;
  std::vector<std::optional<ViewEntry>> partners;
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    std::vector<ViewEntry> reply;
    for (int i = 0; i < 10; ++i) {
      const PeerAddress addr = static_cast<PeerAddress>(rng.Index(120));
      reply.push_back(Contact(addr == 99 ? self : addr,
                              static_cast<int>(rng.Index(16)),
                              rng.Index(2) == 0 ? summary : nullptr));
    }
    replies.push_back(std::move(reply));
    partners.emplace_back(
        Contact(static_cast<PeerAddress>(rng.Index(120)), 0, summary));
  }

  const long before = g_allocations.load();
  int picked = 0;
  int full_merges = 0;
  for (size_t round = 0; round < replies.size(); ++round) {
    view.IncrementAges();
    view.DropOlderThan(12);
    picked += view.SelectOldest() != nullptr;
    full_merges += view.size() == 50;
    view.Merge(replies[round], partners[round], self);
  }
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(picked, 40);
  EXPECT_GT(full_merges, 10);  // 17 with this seed; the rest lost a few
  EXPECT_LE(view.entries().capacity(), 50u);
}

TEST(ViewAllocationTest, RewelcomeIntoAFullAgedViewDoesNotAllocate) {
  // A client back from churn: its directory's welcome, 50 age-0 contacts
  // in ascending address order, lands in a full view of aged entries,
  // some with summaries, and names 17 of them again.
  const PeerAddress self = 1000;
  View view(50, /*max_age=*/12);
  const SummaryRef summary = Summarize(500, 8, 5, {});
  std::vector<ViewEntry> aged;
  for (PeerAddress a = 0; a < 50; ++a) {
    aged.push_back(Contact(2 * a, 1 + static_cast<int>(a % 7),
                           a % 3 == 0 ? summary : nullptr));
  }
  view.Merge(aged, std::nullopt, self);
  ASSERT_EQ(view.size(), 50u);
  std::vector<ViewEntry> welcome;
  for (PeerAddress a = 0; a < 50; ++a) welcome.push_back(Contact(3 * a, 0));

  const long before = g_allocations.load();
  view.Merge(welcome, std::nullopt, self);
  EXPECT_EQ(g_allocations.load() - before, 0);
  ASSERT_EQ(view.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(view.entries()[i].addr, welcome[i].addr);
    EXPECT_EQ(view.entries()[i].age, 0);
    EXPECT_EQ(view.entries()[i].summary, nullptr);
  }
}

}  // namespace
}  // namespace flower
