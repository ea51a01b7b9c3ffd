// Bloom filter used for content and directory summaries (Fan et al.,
// "Summary Cache", SIGCOMM 1998 — the paper's citation [9]).
#ifndef FLOWERCDN_BLOOM_BLOOM_FILTER_H_
#define FLOWERCDN_BLOOM_BLOOM_FILTER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flower {

/// One key's hashes, reusable against any number of filters without
/// allocating. The query path tests one object against every summary in a
/// view (V_gossip = 50 by default), all of one size, so it hashes once per
/// query rather than once per summary. Double hashing: position i in a
/// filter of m bits is (h1 + i * h2) mod m; the positions are cached for
/// the last m seen, so further filters of that size cost only their bit
/// tests. A probe is a short-lived local; the cache makes it unsafe to
/// share one between threads.
class BloomProbe {
 public:
  /// Most hash functions a filter may use (positions are cached inline;
  /// config validation holds `summary_num_hashes` to this bound).
  static constexpr int kMaxHashes = 16;

  explicit BloomProbe(uint64_t key);

 private:
  friend class BloomFilter;
  friend class ContentSummary;

  /// The key's first `num_hashes` positions in a filter of `num_bits` bits.
  const size_t* Positions(size_t num_bits, int num_hashes) const {
    if (num_bits != cached_bits_ || num_hashes > cached_hashes_) {
      Reduce(num_bits, num_hashes);
    }
    return positions_.data();
  }
  void Reduce(size_t num_bits, int num_hashes) const;

  uint64_t h1_;
  uint64_t h2_;  // odd step
  // Position i depends only on the filter size, so positions cached for
  // more hashes serve a filter with fewer.
  mutable size_t cached_bits_ = 0;  // 0: nothing cached yet
  mutable int cached_hashes_ = 0;
  mutable std::array<size_t, kMaxHashes> positions_;
};

/// A dense Bloom filter: the scratch every ContentSummary is built in,
/// and the reference its compact probes must match bit for bit.
class BloomFilter {
 public:
  /// Creates a filter with `num_bits` bits and `num_hashes` hash functions
  /// (1..BloomProbe::kMaxHashes).
  BloomFilter(size_t num_bits, int num_hashes);

  void Add(uint64_t key);

  /// True if the key *may* be present; false means definitely absent.
  bool MaybeContains(uint64_t key) const {
    return MaybeContains(BloomProbe(key));
  }
  bool MaybeContains(const BloomProbe& probe) const {
    const size_t* pos = probe.Positions(num_bits_, num_hashes_);
    for (int i = 0; i < num_hashes_; ++i) {
      if ((bits_[pos[i] / 64] & (1ULL << (pos[i] % 64))) == 0) return false;
    }
    return true;
  }

  void Clear();

  /// Bitwise union with another filter of identical geometry.
  void UnionWith(const BloomFilter& other);

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }
  size_t CountSetBits() const;
  uint64_t num_insertions() const { return insertions_; }

  /// Theoretical false-positive rate for the current insertion count:
  /// (1 - e^{-kn/m})^k.
  double EstimatedFpRate() const;

  bool operator==(const BloomFilter& other) const {
    return num_bits_ == other.num_bits_ && num_hashes_ == other.num_hashes_ &&
           bits_ == other.bits_;
  }

 private:
  friend class ContentSummary;  // packs a filter's words into a summary

  size_t num_bits_;
  int num_hashes_;
  std::vector<uint64_t> bits_;
  uint64_t insertions_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_BLOOM_BLOOM_FILTER_H_
