// D-ring identifier scheme (paper Sec 3.1, Fig 2).
//
// A peer ID / search key of m bits is the concatenation of:
//   [ website ID : m2 bits ][ locality ID : m1 bits ][ instance : b bits ]
// where the website ID is hash(website url) in the subspace [1 .. 2^m2-1],
// the locality ID is the peer's locality in [0 .. k-1], and the optional
// b instance bits implement the scale-up extension of Sec 5.3 (several
// directory peers per (website, locality); b = 0 in the basic system).
#ifndef FLOWERCDN_CORE_FLOWER_IDS_H_
#define FLOWERCDN_CORE_FLOWER_IDS_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace flower {

class DRingIdScheme {
 public:
  /// id_bits = m (total), locality_bits = m1, extra_bits = b.
  /// Requires Check(m, m1, b, 1, 1) to pass.
  DRingIdScheme(int id_bits, int locality_bits, int extra_bits);

  /// Whether ids of these widths can name `localities` localities with
  /// `instances` directory instances each: 1 <= m1, 0 <= b, m1 + b < m <=
  /// 64, localities <= 2^m1 and instances <= 2^b. The errors name the
  /// SimConfig keys the widths come from (chord_id_bits,
  /// locality_id_bits, scaleup_extra_bits).
  static Status Check(int id_bits, int locality_bits, int extra_bits,
                      uint64_t localities, uint64_t instances);

  int id_bits() const { return id_bits_; }
  int locality_bits() const { return locality_bits_; }
  int extra_bits() const { return extra_bits_; }
  int website_bits() const {
    return id_bits_ - locality_bits_ - extra_bits_;
  }

  /// hash(url) mapped into the nonzero website subspace [1 .. 2^m2 - 1].
  uint64_t HashWebsite(std::string_view url) const;

  /// Peer ID of directory peer d(ws, loc), instance `inst` (Sec 5.3).
  Key MakeDirectoryId(uint64_t website_hash, LocalityId loc,
                      uint32_t inst = 0) const;

  /// Search key for (website, locality) — instance bits zero, so the DHT
  /// delivers to the first directory instance (or the closest same-website
  /// peer if absent).
  Key MakeKey(uint64_t website_hash, LocalityId loc) const {
    return MakeDirectoryId(website_hash, loc, 0);
  }

  /// Website segment of a key (what Algorithm 2 compares).
  uint64_t WebsiteIdOf(Key key) const {
    return key >> (locality_bits_ + extra_bits_);
  }

  LocalityId LocalityOf(Key key) const {
    return static_cast<LocalityId>((key >> extra_bits_) &
                                   ((1ULL << locality_bits_) - 1));
  }

  uint32_t InstanceOf(Key key) const {
    if (extra_bits_ == 0) return 0;
    return static_cast<uint32_t>(key & ((1ULL << extra_bits_) - 1));
  }

  /// True if two keys belong to the same website.
  bool SameWebsite(Key a, Key b) const {
    return WebsiteIdOf(a) == WebsiteIdOf(b);
  }

 private:
  int id_bits_;
  int locality_bits_;
  int extra_bits_;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_FLOWER_IDS_H_
