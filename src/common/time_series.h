// Time-bucketed aggregation for "metric vs time" figures.
#ifndef FLOWERCDN_COMMON_TIME_SERIES_H_
#define FLOWERCDN_COMMON_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace flower {

/// Accumulates (time, value) samples into fixed-width time windows and
/// exposes per-window mean / sum / count. Used to regenerate the paper's
/// Figures 5-8(a), which plot a metric against simulation time.
///
/// Memory contract: unbounded mode (`max_windows == 0`, the default)
/// stores one 16-byte cell per touched base window — O(duration /
/// window). Bounded mode (`max_windows > 0`, the `metrics_max_points`
/// config key) caps storage at `max_windows` cells: whenever a sample
/// would land past the cap, adjacent windows are coalesced pairwise
/// (the decimation factor doubles), so stored cells cover
/// `decimation()` base windows each and memory stays O(max_windows)
/// regardless of run length. Sums and counts are exact at the coarser
/// granularity; per-base-window resolution is what decimation trades
/// away.
class TimeSeries {
 public:
  explicit TimeSeries(SimTime window, size_t max_windows = 0);

  void Add(SimTime t, double value);

  /// Number of stored cells so far (each spans `decimation()` windows).
  size_t NumWindows() const { return windows_.size(); }

  SimTime window() const { return window_; }
  /// Base windows coalesced per stored cell (1 in unbounded mode).
  uint64_t decimation() const { return decim_; }
  size_t max_windows() const { return max_windows_; }
  SimTime WindowStart(size_t i) const {
    return static_cast<SimTime>(i * decim_) * window_;
  }

  double WindowMean(size_t i) const;
  double WindowSum(size_t i) const;
  uint64_t WindowCount(size_t i) const;

  /// Mean of the last `n` non-empty windows (for headline "converged"
  /// numbers). Returns 0 if no samples at all.
  double TailMean(size_t n) const;

 private:
  struct Window {
    double sum = 0;
    uint64_t count = 0;
  };

  /// Halves resolution: doubles decim_ and coalesces cell pairs.
  void Coalesce();

  SimTime window_;
  size_t max_windows_;
  uint64_t decim_ = 1;
  std::vector<Window> windows_;
};

/// Tracks a ratio (successes / trials) per time window, e.g. hit ratio.
/// Same memory contract as TimeSeries (two cells per window; both
/// sub-series decimate in lockstep under `max_windows`).
class RatioSeries {
 public:
  explicit RatioSeries(SimTime window, size_t max_windows = 0);

  void Add(SimTime t, bool success);

  size_t NumWindows() const { return trials_.NumWindows(); }
  SimTime WindowStart(size_t i) const { return trials_.WindowStart(i); }

  /// Ratio within window i; 0 when the window has no trials.
  double WindowRatio(size_t i) const;

  /// Ratio over all samples so far.
  double CumulativeRatio() const;

  /// Ratio over the last `n` windows that contain trials.
  double TailRatio(size_t n) const;

  uint64_t total_trials() const { return total_trials_; }
  uint64_t total_successes() const { return total_successes_; }

 private:
  TimeSeries trials_;     // count = trials per window
  TimeSeries successes_;  // sum = successes per window
  uint64_t total_trials_ = 0;
  uint64_t total_successes_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_COMMON_TIME_SERIES_H_
