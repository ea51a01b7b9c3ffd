// Content summaries: Bloom filters over object identifiers, sized per the
// paper's Table 1 (8 bits per potential object).
#ifndef FLOWERCDN_BLOOM_SUMMARY_H_
#define FLOWERCDN_BLOOM_SUMMARY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "bloom/bloom_filter.h"
#include "common/types.h"

namespace flower {

class SummaryRef;

/// An immutable snapshot summary of a set of object ids, as carried in
/// gossip and directory-summary messages. Knows its own wire size.
///
/// A summary answers exactly as the dense BloomFilter it was built from,
/// but stores only the filter's nonzero bytes, in one heap block sized to
/// its content:
///
///   header (16 B)  | presence: u64[G] | ranks: u32[G] | nonzero bytes
///
/// Presence bit b of word g says whether filter byte 64g + b is nonzero;
/// ranks[g] counts the nonzero bytes before byte 64g, so a byte's place
/// among the packed ones is one popcount away. G = ceil(m / 512). A filter
/// of m = 4000 bits costs 112 bytes plus one per nonzero byte, against
/// 512 bytes of dense bits.
///
/// Snapshots are shared: view entries across an overlay and directory
/// summaries hold the same one through SummaryRef handles, whose
/// reference count lives in the header. A summary never leaves the run
/// that built it, so the count is a plain integer.
class ContentSummary {
 public:
  ContentSummary(const ContentSummary&) = delete;
  ContentSummary& operator=(const ContentSummary&) = delete;

  /// Builds the summary of the ids `add_ids(BloomFilter&)` adds to the
  /// filter it is handed. capacity: the maximum number of objects the
  /// summarized set may hold (the paper bounds it by nb_ob, the
  /// per-website object count); the filter has max(capacity, 1) *
  /// bits_per_object bits. The filter is a dense scratch reused by every
  /// build on the calling thread, so `add_ids` must not build a summary.
  template <typename AddIds>
  static SummaryRef Build(int capacity, int bits_per_object, int num_hashes,
                          AddIds&& add_ids);

  bool MaybeContains(ObjectId id) const {
    return MaybeContains(BloomProbe(id));
  }
  /// The query path's form: one probe per object, tested against many
  /// summaries (see BloomProbe).
  bool MaybeContains(const BloomProbe& probe) const {
    const size_t* pos = probe.Positions(num_bits_, num_hashes_);
    const size_t groups = Groups(num_bits_);
    const unsigned char* presence = Data();
    const unsigned char* ranks = presence + groups * sizeof(uint64_t);
    const unsigned char* packed = ranks + groups * sizeof(uint32_t);
    for (int i = 0; i < num_hashes_; ++i) {
      const size_t byte = pos[i] / 8;
      const size_t group = byte / 64;
      uint64_t present;
      std::memcpy(&present, presence + group * sizeof(uint64_t),
                  sizeof(present));
      const uint64_t bit = uint64_t{1} << (byte % 64);
      if ((present & bit) == 0) return false;
      uint32_t rank;
      std::memcpy(&rank, ranks + group * sizeof(uint32_t), sizeof(rank));
      rank += CountBits(present & (bit - 1));
      if (((packed[rank] >> (pos[i] % 8)) & 1) == 0) return false;
    }
    return true;
  }

  /// Wire size in bits: the filter's m, whatever the in-memory layout
  /// (geometry is implied by protocol).
  uint64_t SizeBits() const { return num_bits_; }

 private:
  friend class SummaryRef;

  ContentSummary(size_t num_bits, int num_hashes)
      : num_hashes_(num_hashes), num_bits_(num_bits) {}

  /// Presence words (and rank slots) for a filter of `num_bits` bits: one
  /// per 64 filter bytes.
  static size_t Groups(size_t num_bits) { return (num_bits + 511) / 512; }

  /// Set bits of `x`. The baseline x86-64 target has no POPCNT
  /// instruction, and __builtin_popcountll then calls a libgcc routine;
  /// this stays inline on the probe path.
  static uint32_t CountBits(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<uint32_t>((x * 0x0101010101010101ULL) >> 56);
  }

  /// The calling thread's dense scratch, cleared, at the given geometry.
  static BloomFilter& Scratch(size_t num_bits, int num_hashes);
  /// Copies the calling thread's scratch into a new exact-size block.
  static SummaryRef Pack();
  static void Destroy(const ContentSummary* summary);

  const unsigned char* Data() const {
    return reinterpret_cast<const unsigned char*>(this) +
           sizeof(ContentSummary);
  }

  /// Handles referring to this summary.
  mutable uint32_t refs_ = 0;
  int num_hashes_;
  uint64_t num_bits_;
};
static_assert(sizeof(ContentSummary) == 16, "summary header grew");

/// A shared, owning handle to an immutable ContentSummary: one pointer
/// (8 bytes, against std::shared_ptr's 16), counted inside the summary.
/// ContentSummary::Build hands out the first handle; copies share the
/// summary, and the last handle released frees it.
class SummaryRef {
 public:
  SummaryRef() = default;
  SummaryRef(std::nullptr_t) {}

  SummaryRef(const SummaryRef& other) : ptr_(other.ptr_) { Acquire(); }
  SummaryRef(SummaryRef&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}
  SummaryRef& operator=(SummaryRef other) noexcept {
    std::swap(ptr_, other.ptr_);
    return *this;
  }

  ~SummaryRef() {
    if (ptr_ != nullptr && --ptr_->refs_ == 0) {
      ContentSummary::Destroy(ptr_);
    }
  }

  const ContentSummary* get() const { return ptr_; }
  const ContentSummary* operator->() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  /// Handles sharing this summary, this one included (0 when empty).
  uint32_t use_count() const {
    return ptr_ == nullptr ? 0 : ptr_->refs_;
  }

  friend bool operator==(const SummaryRef& a, const SummaryRef& b) {
    return a.ptr_ == b.ptr_;
  }
  friend bool operator!=(const SummaryRef& a, const SummaryRef& b) {
    return a.ptr_ != b.ptr_;
  }

 private:
  friend class ContentSummary;

  /// Adopts a freshly packed summary.
  explicit SummaryRef(const ContentSummary* summary) : ptr_(summary) {
    Acquire();
  }
  void Acquire() {
    if (ptr_ != nullptr) ++ptr_->refs_;
  }

  const ContentSummary* ptr_ = nullptr;
};

template <typename AddIds>
SummaryRef ContentSummary::Build(int capacity, int bits_per_object,
                                 int num_hashes, AddIds&& add_ids) {
  BloomFilter& scratch = Scratch(
      static_cast<size_t>(capacity < 1 ? 1 : capacity) *
          static_cast<size_t>(bits_per_object),
      num_hashes);
  add_ids(scratch);
  return Pack();
}

}  // namespace flower

#endif  // FLOWERCDN_BLOOM_SUMMARY_H_
