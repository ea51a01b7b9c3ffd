#include "bloom/bloom_filter.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace flower {

BloomProbe::BloomProbe(uint64_t key)
    : h1_(Mix64(key)), h2_(Mix64(key ^ 0x5851f42d4c957f2dULL) | 1) {}

void BloomProbe::Reduce(size_t num_bits, int num_hashes) const {
  for (int i = 0; i < num_hashes; ++i) {
    positions_[static_cast<size_t>(i)] = static_cast<size_t>(
        (h1_ + static_cast<uint64_t>(i) * h2_) % num_bits);
  }
  cached_bits_ = num_bits;
  cached_hashes_ = num_hashes;
}

BloomFilter::BloomFilter(size_t num_bits, int num_hashes)
    : num_bits_(num_bits),
      num_hashes_(num_hashes),
      bits_((num_bits + 63) / 64, 0) {
  // SimConfig::Apply validates the summary keys, but the fields can also
  // be set directly; a probe would then index past its inline positions,
  // so this stays fatal in Release builds too.
  if (num_bits == 0 || num_hashes < 1 ||
      num_hashes > BloomProbe::kMaxHashes) {
    std::fprintf(stderr, "fatal: Bloom filter of %zu bits and %d hashes\n",
                 num_bits, num_hashes);
    std::abort();
  }
}

void BloomFilter::Add(uint64_t key) {
  const BloomProbe probe(key);
  const size_t* pos = probe.Positions(num_bits_, num_hashes_);
  for (int i = 0; i < num_hashes_; ++i) {
    bits_[pos[i] / 64] |= (1ULL << (pos[i] % 64));
  }
  ++insertions_;
}

void BloomFilter::Clear() {
  for (auto& w : bits_) w = 0;
  insertions_ = 0;
}

void BloomFilter::UnionWith(const BloomFilter& other) {
  assert(other.num_bits_ == num_bits_);
  assert(other.num_hashes_ == num_hashes_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
  insertions_ += other.insertions_;
}

size_t BloomFilter::CountSetBits() const {
  size_t count = 0;
  for (uint64_t w : bits_) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

double BloomFilter::EstimatedFpRate() const {
  double k = static_cast<double>(num_hashes_);
  double n = static_cast<double>(insertions_);
  double m = static_cast<double>(num_bits_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

}  // namespace flower
