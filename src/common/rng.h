// Deterministic pseudo-random number generation for the simulator.
//
// The whole simulation must be reproducible from a single seed, so all
// randomness flows through Rng instances derived from the master seed via
// SplitMix64 (which is also used to seed the xoshiro256** engine).
#ifndef FLOWERCDN_COMMON_RNG_H_
#define FLOWERCDN_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace flower {

/// SplitMix64 step; also usable as a 64-bit mixing/finalizing function.
uint64_t SplitMix64(uint64_t* state);

/// Mixes a 64-bit value (stateless finalizer of SplitMix64).
uint64_t Mix64(uint64_t x);

/// xoshiro256** engine with convenience distributions.
/// Satisfies UniformRandomBitGenerator so it can also drive <random>.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return Next(); }

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given mean.
  double Exponential(double mean);

  /// Picks a uniformly random element index from [0, n). Requires n > 0.
  size_t Index(size_t n);

  /// Samples `count` distinct indices from [0, n) (count may exceed n, in
  /// which case all n indices are returned). Order is random. Time and
  /// memory are O(min(count, n)), so drawing a few indices from a large
  /// range is cheap.
  std::vector<size_t> SampleIndices(size_t n, size_t count);

  /// Samples an index according to the given non-negative weights.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Derives an independent child generator (stable given call order).
  Rng Fork();

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Index(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace flower

#endif  // FLOWERCDN_COMMON_RNG_H_
