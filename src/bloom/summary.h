// Content summaries: Bloom filters over object identifiers, sized per the
// paper's Table 1 (8 bits per potential object).
#ifndef FLOWERCDN_BLOOM_SUMMARY_H_
#define FLOWERCDN_BLOOM_SUMMARY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/types.h"

namespace flower {

class SummaryRef;

/// A snapshot summary of a set of object ids, as carried in gossip and
/// directory-summary messages. Knows its own wire size.
///
/// Snapshots are shared: view entries across an overlay and directory
/// summaries on several lanes hold the same filter through SummaryRef
/// handles, whose reference count lives here.
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
  friend class SummaryRef;

  BloomFilter filter_;
  /// Handles referring to this summary. Atomic: in a sharded run a
  /// directory summary is copied and dropped on several lanes at once.
  mutable std::atomic<uint32_t> refs_{0};
};

/// A shared, owning handle to an immutable ContentSummary: one pointer
/// (8 bytes, against std::shared_ptr's 16), counted inside the summary.
/// A builder fills a std::unique_ptr<ContentSummary>, then hands it to a
/// handle; copies share the summary, and the last handle released
/// deletes it.
class SummaryRef {
 public:
  SummaryRef() = default;
  SummaryRef(std::nullptr_t) {}
  explicit SummaryRef(std::unique_ptr<ContentSummary> summary)
      : ptr_(summary.release()) {
    Acquire();
  }

  SummaryRef(const SummaryRef& other) : ptr_(other.ptr_) { Acquire(); }
  SummaryRef(SummaryRef&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}
  SummaryRef& operator=(SummaryRef other) noexcept {
    std::swap(ptr_, other.ptr_);
    return *this;
  }

  ~SummaryRef() {
    if (ptr_ != nullptr && ptr_->refs_.fetch_sub(1) == 1) delete ptr_;
  }

  const ContentSummary* get() const { return ptr_; }
  const ContentSummary* operator->() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  /// Handles sharing this summary, this one included (0 when empty).
  uint32_t use_count() const {
    return ptr_ == nullptr ? 0 : ptr_->refs_.load();
  }

  friend bool operator==(const SummaryRef& a, const SummaryRef& b) {
    return a.ptr_ == b.ptr_;
  }
  friend bool operator!=(const SummaryRef& a, const SummaryRef& b) {
    return a.ptr_ != b.ptr_;
  }

 private:
  void Acquire() {
    if (ptr_ != nullptr) ptr_->refs_.fetch_add(1);
  }

  const ContentSummary* ptr_ = nullptr;
};

}  // namespace flower

#endif  // FLOWERCDN_BLOOM_SUMMARY_H_
