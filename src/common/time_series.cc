#include "common/time_series.h"

#include <cassert>

namespace flower {

TimeSeries::TimeSeries(SimTime window, size_t max_windows)
    : window_(window), max_windows_(max_windows) {
  assert(window > 0);
}

void TimeSeries::Coalesce() {
  decim_ *= 2;
  std::vector<Window> coarse((windows_.size() + 1) / 2);
  for (size_t i = 0; i < windows_.size(); ++i) {
    coarse[i / 2].sum += windows_[i].sum;
    coarse[i / 2].count += windows_[i].count;
  }
  windows_ = std::move(coarse);
}

void TimeSeries::Add(SimTime t, double value) {
  assert(t >= 0);
  size_t idx = static_cast<size_t>(t / window_);
  if (max_windows_ > 0) {
    while (idx / decim_ >= max_windows_) Coalesce();
    idx /= decim_;
  }
  if (idx >= windows_.size()) windows_.resize(idx + 1);
  windows_[idx].sum += value;
  windows_[idx].count += 1;
}

double TimeSeries::WindowMean(size_t i) const {
  if (i >= windows_.size() || windows_[i].count == 0) return 0.0;
  return windows_[i].sum / static_cast<double>(windows_[i].count);
}

double TimeSeries::WindowSum(size_t i) const {
  return i >= windows_.size() ? 0.0 : windows_[i].sum;
}

uint64_t TimeSeries::WindowCount(size_t i) const {
  return i >= windows_.size() ? 0 : windows_[i].count;
}

double TimeSeries::TailMean(size_t n) const {
  double sum = 0;
  uint64_t count = 0;
  size_t taken = 0;
  for (size_t i = windows_.size(); i-- > 0 && taken < n;) {
    if (windows_[i].count == 0) continue;
    sum += windows_[i].sum;
    count += windows_[i].count;
    ++taken;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

RatioSeries::RatioSeries(SimTime window, size_t max_windows)
    : trials_(window, max_windows), successes_(window, max_windows) {}

void RatioSeries::Add(SimTime t, bool success) {
  trials_.Add(t, 1.0);
  successes_.Add(t, success ? 1.0 : 0.0);
  ++total_trials_;
  if (success) ++total_successes_;
}

double RatioSeries::WindowRatio(size_t i) const {
  uint64_t n = trials_.WindowCount(i);
  if (n == 0) return 0.0;
  return successes_.WindowSum(i) / static_cast<double>(n);
}

double RatioSeries::CumulativeRatio() const {
  if (total_trials_ == 0) return 0.0;
  return static_cast<double>(total_successes_) /
         static_cast<double>(total_trials_);
}

double RatioSeries::TailRatio(size_t n) const {
  double suc = 0;
  double tri = 0;
  size_t taken = 0;
  for (size_t i = trials_.NumWindows(); i-- > 0 && taken < n;) {
    if (trials_.WindowCount(i) == 0) continue;
    suc += successes_.WindowSum(i);
    tri += static_cast<double>(trials_.WindowCount(i));
    ++taken;
  }
  return tri == 0 ? 0.0 : suc / tri;
}

}  // namespace flower
