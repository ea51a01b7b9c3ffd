// Content summaries: Bloom filters over object identifiers, sized per the
// paper's Table 1 (8 bits per potential object).
#ifndef FLOWERCDN_BLOOM_SUMMARY_H_
#define FLOWERCDN_BLOOM_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/types.h"

namespace flower {

/// A snapshot summary of a set of object ids, as carried in gossip and
/// directory-summary messages. Knows its own wire size.
class ContentSummary {
 public:
  /// capacity: the maximum number of objects the summarized set may hold
  /// (the paper bounds it by nb_ob, the per-website object count).
  ContentSummary(int capacity, int bits_per_object, int num_hashes);

  /// Convenience: empty summary with default geometry for tests.
  ContentSummary() : ContentSummary(1, 8, 5) {}

  void Add(ObjectId id) { filter_.Add(id); }
  bool MaybeContains(ObjectId id) const { return filter_.MaybeContains(id); }
  /// The query path's form: one probe per object, tested against many
  /// summaries (see BloomProbe).
  bool MaybeContains(const BloomProbe& probe) const {
    return filter_.MaybeContains(probe);
  }
  void Clear() { filter_.Clear(); }

  /// Rebuilds from a full object list.
  void Rebuild(const std::vector<ObjectId>& objects);

  /// Wire size in bits (the filter bits; geometry is implied by protocol).
  uint64_t SizeBits() const { return filter_.num_bits(); }

  uint64_t num_insertions() const { return filter_.num_insertions(); }
  const BloomFilter& filter() const { return filter_; }

 private:
  BloomFilter filter_;
};

}  // namespace flower

#endif  // FLOWERCDN_BLOOM_SUMMARY_H_
