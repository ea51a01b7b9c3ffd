// Fixed-width histogram for latency/distance distributions.
#ifndef FLOWERCDN_COMMON_HISTOGRAM_H_
#define FLOWERCDN_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flower {

/// Histogram over [0, bucket_width * num_buckets) with an overflow bucket.
/// Values are doubles; negative values clamp to bucket 0.
class Histogram {
 public:
  Histogram(double bucket_width, size_t num_buckets);

  void Add(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const;
  double Min() const;
  double Max() const;

  /// Fraction of samples with value < x (linear interpolation within the
  /// containing bucket). Returns 0 for an empty histogram.
  double FractionBelow(double x) const;

  /// p-th percentile (p in [0, 100]), interpolated. Returns 0 when empty.
  double Percentile(double p) const;

  /// Bucket boundaries and counts, e.g. for printing a distribution.
  size_t num_buckets() const { return buckets_.size(); }
  double bucket_width() const { return bucket_width_; }
  uint64_t bucket_count(size_t i) const { return buckets_[i]; }
  uint64_t overflow_count() const { return overflow_; }

  /// Renders "lo-hi: count" lines, mainly for debugging and examples.
  std::string ToString(size_t max_lines = 16) const;

 private:
  double bucket_width_;
  std::vector<uint64_t> buckets_;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_COMMON_HISTOGRAM_H_
