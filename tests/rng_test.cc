#include "common/rng.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace flower {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsCentered) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliRespectsP) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.Exponential(10.0), 0.0);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(31);
  auto sample = rng.SampleIndices(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleIndicesCountExceedsN) {
  Rng rng(37);
  auto sample = rng.SampleIndices(5, 50);
  ASSERT_EQ(sample.size(), 5u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleIndicesZero) {
  Rng rng(41);
  EXPECT_TRUE(rng.SampleIndices(10, 0).empty());
}

// Reference: partial Fisher-Yates over a dense n-element pool swapped in
// place, O(n) time and memory. SampleIndices must reproduce it draw for
// draw while storing only the positions a swap displaced.
std::vector<size_t> DenseSampleIndices(Rng* rng, size_t n, size_t count) {
  if (count >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    rng->Shuffle(&all);
    return all;
  }
  std::vector<size_t> picked;
  picked.reserve(count);
  std::vector<size_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = i;
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + rng->Index(n - i);
    std::swap(pool[i], pool[j]);
    picked.push_back(pool[i]);
  }
  return picked;
}

TEST(RngTest, SampleIndicesMatchesDenseFisherYates) {
  struct Case {
    size_t n;
    size_t count;
  };
  const std::vector<Case> cases = {
      {20, 0},  {20, 1},   {20, 19},   {20, 20}, {20, 25},
      {1, 0},   {1, 1},    {1, 6},     {50, 10},  // a gossip view's draw
      {5000, 50},                                  // a welcome's draw
  };
  for (uint64_t seed : {1u, 7u, 42u, 101u, 9001u}) {
    for (const Case& c : cases) {
      Rng actual(seed);
      Rng expected(seed);
      // Draw twice from the same generator, so the second sample starts
      // from whatever state the first one left behind.
      for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(actual.SampleIndices(c.n, c.count),
                  DenseSampleIndices(&expected, c.n, c.count))
            << "seed " << seed << " n " << c.n << " count " << c.count
            << " round " << round;
      }
      EXPECT_EQ(actual.Next(), expected.Next())
          << "seed " << seed << " n " << c.n << " count " << c.count;
    }
  }
}

TEST(RngTest, SampleIndicesFromHugeRangeIsCheap) {
  // The dense pool would need 800 MB here.
  const size_t n = 100'000'000;
  Rng rng(61);
  std::vector<size_t> sample = rng.SampleIndices(n, 50);
  ASSERT_EQ(sample.size(), 50u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
  for (size_t s : sample) EXPECT_LT(s, n);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(43);
  std::vector<double> weights = {1.0, 3.0};
  int hi = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.WeightedIndex(weights) == 1) ++hi;
  }
  EXPECT_NEAR(static_cast<double>(hi) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(47);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.WeightedIndex(weights), 1u);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(53);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(53);
  b.Next();  // advance like the fork did
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(1), Mix64(2));
}

}  // namespace
}  // namespace flower
