#include "common/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace flower {

Histogram::Histogram(double bucket_width, size_t num_buckets)
    : bucket_width_(bucket_width), buckets_(num_buckets, 0) {
  assert(bucket_width > 0);
  assert(num_buckets > 0);
}

void Histogram::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value < 0) value = 0;
  size_t idx = static_cast<size_t>(value / bucket_width_);
  if (idx >= buckets_.size()) {
    ++overflow_;
  } else {
    ++buckets_[idx];
  }
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::Max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::FractionBelow(double x) const {
  if (count_ == 0) return 0.0;
  if (x <= 0) return 0.0;
  double full = x / bucket_width_;
  size_t whole = static_cast<size_t>(full);
  uint64_t below = 0;
  for (size_t i = 0; i < whole && i < buckets_.size(); ++i) below += buckets_[i];
  if (whole < buckets_.size()) {
    double frac = full - static_cast<double>(whole);
    below += static_cast<uint64_t>(frac * static_cast<double>(buckets_[whole]));
  } else {
    // x beyond tracked range: everything except (part of) overflow is below.
    // We cannot interpolate the overflow bucket; count it as not-below.
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double target = p / 100.0 * static_cast<double>(count_);
  double acc = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    double next = acc + static_cast<double>(buckets_[i]);
    if (next >= target) {
      double within = buckets_[i] == 0
                          ? 0.0
                          : (target - acc) / static_cast<double>(buckets_[i]);
      return (static_cast<double>(i) + within) * bucket_width_;
    }
    acc = next;
  }
  return static_cast<double>(buckets_.size()) * bucket_width_;
}

std::string Histogram::ToString(size_t max_lines) const {
  std::ostringstream os;
  size_t last_nonzero = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) last_nonzero = i;
  }
  size_t lines = std::min(max_lines, last_nonzero + 1);
  for (size_t i = 0; i < lines; ++i) {
    os << bucket_width_ * static_cast<double>(i) << "-"
       << bucket_width_ * static_cast<double>(i + 1) << ": " << buckets_[i]
       << "\n";
  }
  if (overflow_ > 0) os << ">=" << bucket_width_ * buckets_.size() << ": "
                        << overflow_ << "\n";
  return os.str();
}

}  // namespace flower
