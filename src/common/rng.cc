#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace flower {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t state = x;
  return SplitMix64(&state);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  // Avoid the all-zero state (astronomically unlikely but cheap to guard).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Debiased modulo via rejection sampling.
  uint64_t limit = ~0ULL - (~0ULL % range);
  uint64_t v;
  do {
    v = Next();
  } while (v > limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Exponential(double mean) {
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

size_t Rng::Index(size_t n) {
  assert(n > 0);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t count) {
  if (count >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    Shuffle(&all);
    return all;
  }
  // Partial Fisher-Yates over a virtual pool: pool[k] == k except at the
  // positions a swap displaced. Step i reads positions i and j >= i and
  // writes only j (position i is never read again), so at most `count`
  // positions are ever displaced. They live in an open-addressed table at
  // load <= 1/2, which makes the cost O(count) whatever n is.
  constexpr size_t kEmpty = static_cast<size_t>(-1);
  int bits = 2;
  while ((size_t{1} << bits) < 2 * count) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<std::pair<size_t, size_t>> moved(mask + 1, {kEmpty, 0});
  auto slot = [&](size_t pos) -> std::pair<size_t, size_t>& {
    size_t h = static_cast<size_t>((pos * 0x9e3779b97f4a7c15ULL) >>
                                   (64 - bits));
    while (moved[h].first != pos && moved[h].first != kEmpty) {
      h = (h + 1) & mask;
    }
    return moved[h];
  };
  std::vector<size_t> picked;
  picked.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + Index(n - i);
    const std::pair<size_t, size_t>& at_i = slot(i);
    const size_t value_i = at_i.first == i ? at_i.second : i;
    std::pair<size_t, size_t>& at_j = slot(j);
    picked.push_back(at_j.first == j ? at_j.second : j);
    at_j = {j, value_i};
  }
  return picked;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace flower
