// Measurement collection for the paper's four metrics (Sec 6):
// background traffic, hit ratio, lookup latency, transfer distance.
//
// Sharded runs (sim/shard_plan.h) call EnableLanes: every write hook then
// routes to a per-lane sub-collector chosen by CurrentSimLane(), so lane
// events never touch a shared accumulator (safe under the parallel shard
// executor), and reads fold the lanes in lane order — a deterministic
// floating-point summation order that is independent of thread count and
// shard grouping. In sharded mode reads are only stable at barriers
// (control phase, observers, after the run), which is where every caller
// in this codebase reads.
#ifndef FLOWERCDN_STATS_METRICS_H_
#define FLOWERCDN_STATS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/histogram.h"
#include "common/thread_annotations.h"
#include "common/time_series.h"
#include "common/types.h"
#include "net/network.h"

namespace flower {

class Metrics {
 public:
  explicit Metrics(const SimConfig& config);

  /// Switches into lane-routed mode with `locality_lanes` lanes (one
  /// extra, last, collects control-context samples). Call before the run
  /// starts.
  void EnableLanes(int locality_lanes);
  bool lanes_enabled() const { return !lanes_.empty(); }

  // --- Query lifecycle hooks --------------------------------------------------

  void OnQuerySubmitted(SimTime t) { ++Self().queries_submitted_; (void)t; }

  /// The query reached the node that will provide the object.
  /// `submit` is the original submission time.
  void OnLookupResolved(SimTime submit, SimTime now, bool provider_is_server);

  /// Who provided an object, for serve-path diagnostics.
  enum class ProviderKind : int {
    kServer = 0,     // origin web server (miss)
    kLocalPeer,      // peer in the requester's own locality
    kRemotePeer,     // peer of another locality (e.g. via dir summaries)
    kNumKinds,
  };

  /// The object arrived at the requester. `transfer_distance` is the
  /// one-way provider->client latency; `from_p2p` is the hit indicator.
  void OnServed(SimTime t, bool from_p2p, SimTime transfer_distance,
                ProviderKind kind = ProviderKind::kLocalPeer);

  /// Origin-server load accounting (per query served by the server).
  void OnServerHit() { ++Self().server_hits_; }

  // --- Cache pressure hooks (src/cache/ subsystem) ------------------------------

  /// A peer's bounded content store evicted `n` objects to make room.
  void OnCacheEvictions(uint64_t n) { Self().cache_evictions_ += n; }

  /// Which channel carried the stale claim behind a misdirected hop, so
  /// directory-side staleness (index entries) is attributed distinctly
  /// from peer-side staleness (gossiped cache summaries, the
  /// cache-eviction channel).
  enum class StaleSource : int {
    kPeerSummary = 0,  // a peer's gossiped bloom summary (or its FP)
    kDirIndex,         // a directory index entry / directory redirect
    kNumSources,
  };

  /// A query was redirected to a peer that no longer (or never) held the
  /// object — a stale bloom summary / directory entry or a Bloom false
  /// positive. The query falls back through the pipeline; this counts the
  /// wasted hop so eviction-induced staleness is measurable. The total is
  /// always the sum over both sources.
  void OnStaleRedirect(StaleSource source = StaleSource::kPeerSummary) {
    Metrics& m = Self();
    ++m.stale_redirects_;
    ++m.stale_redirects_by_source_[static_cast<size_t>(source)];
  }

  /// A bounded DirectoryStore evicted `n` index entries for capacity
  /// (expiry via T_dead is not an eviction).
  void OnDirIndexEvictions(uint64_t n) { Self().dir_index_evictions_ += n; }

  /// A dir-to-dir redirected query (sent here because a neighbor held a
  /// summary of this directory claiming the object) fell through to the
  /// origin server: the neighbor's summary of us was stale — under a
  /// bounded index typically because the holding entries were evicted.
  /// Kept out of `stale_redirects` (a new observation channel, not a
  /// re-attribution of the existing one).
  void OnDirSummaryFallthrough() { ++Self().dir_summary_fallthroughs_; }

  // --- Query-hardening hooks (query_timeout / suspicion, src/core/) ------------

  /// A pending query hit its client-side timeout (query_timeout > 0).
  void OnQueryTimeout() { ++Self().queries_timed_out_; }
  /// A timed-out query was re-driven down the pipeline (not yet the
  /// final origin-server fallback).
  void OnQueryRetry() { ++Self().query_retries_; }
  /// Keepalive-ack suspicion crossed its miss threshold: a content peer
  /// declared its directory silently dead and started replacement.
  void OnSuspicionConfirmed() { ++Self().suspicions_confirmed_; }

  // --- Routing hooks (src/dht/) ------------------------------------------------

  /// A ring node dropped a routed message after max_route_hops hops.
  void OnRouteDropped() { ++Self().routes_dropped_; }

  /// Serve counts by provider kind (diagnostics for Fig 8 analyses).
  uint64_t ServesBy(ProviderKind kind) const {
    return SumOverLanes(&Metrics::serves_by_kind_,
                        static_cast<size_t>(kind));
  }

  // --- Results ------------------------------------------------------------------

  uint64_t queries_submitted() const {
    return SumScalar(&Metrics::queries_submitted_);
  }
  uint64_t queries_served() const;
  uint64_t server_hits() const { return SumScalar(&Metrics::server_hits_); }
  uint64_t cache_evictions() const {
    return SumScalar(&Metrics::cache_evictions_);
  }
  uint64_t stale_redirects() const {
    return SumScalar(&Metrics::stale_redirects_);
  }
  uint64_t StaleRedirectsBy(StaleSource source) const {
    return SumOverLanes(&Metrics::stale_redirects_by_source_,
                        static_cast<size_t>(source));
  }
  uint64_t dir_index_evictions() const {
    return SumScalar(&Metrics::dir_index_evictions_);
  }
  uint64_t dir_summary_fallthroughs() const {
    return SumScalar(&Metrics::dir_summary_fallthroughs_);
  }
  uint64_t queries_timed_out() const {
    return SumScalar(&Metrics::queries_timed_out_);
  }
  uint64_t query_retries() const {
    return SumScalar(&Metrics::query_retries_);
  }
  uint64_t suspicions_confirmed() const {
    return SumScalar(&Metrics::suspicions_confirmed_);
  }
  uint64_t routes_dropped() const {
    return SumScalar(&Metrics::routes_dropped_);
  }

  const RatioSeries& hit_series() const { return Folded().hit_series_; }
  const TimeSeries& lookup_series() const { return Folded().lookup_series_; }
  const TimeSeries& transfer_series() const {
    return Folded().transfer_series_;
  }
  const Histogram& lookup_histogram() const { return Folded().lookup_hist_; }
  const Histogram& transfer_histogram() const {
    return Folded().transfer_hist_;
  }

  /// Headline hit ratio: mean over the last `tail_windows` metric windows
  /// (the curves converge, see DESIGN.md Sec 5).
  double FinalHitRatio(size_t tail_windows = 2) const {
    return hit_series().TailRatio(tail_windows);
  }
  double CumulativeHitRatio() const {
    return hit_series().CumulativeRatio();
  }
  double MeanLookupLatency() const { return lookup_histogram().Mean(); }
  double MeanTransferDistance() const { return transfer_histogram().Mean(); }

  /// Background traffic in bits/s per peer: the given peers'
  /// Network::BackgroundBits, averaged over elapsed time.
  static double BackgroundBps(const Network& network,
                              const std::vector<PeerAddress>& peers,
                              SimTime elapsed);

  /// One-line summary for logs and examples.
  std::string Summary(SimTime elapsed) const;

 private:
  /// Collector the current write goes to: a lane sub-collector in lane
  /// mode (control context uses the last lane), this object otherwise.
  Metrics& Self() {
    if (lanes_.empty()) return *this;
    const int lane = CurrentSimLane();
    const size_t index = lane == Simulator::kControlLane
                             ? lanes_.size() - 1
                             : static_cast<size_t>(lane);
    return *lanes_[index];
  }

  /// The folded view backing series/histogram reads: this object when
  /// lanes are off; otherwise a scratch collector rebuilt from the lanes
  /// (in lane order) on every read burst.
  const Metrics& Folded() const;
  void MergeFrom(const Metrics& other);

  uint64_t SumScalar(uint64_t Metrics::*member) const {
    if (lanes_.empty()) return this->*member;
    uint64_t total = 0;
    for (const auto& lane : lanes_) total += (*lane).*member;
    return total;
  }
  template <typename Array>
  uint64_t SumOverLanes(Array Metrics::*member, size_t index) const {
    if (lanes_.empty()) return (this->*member)[index];
    uint64_t total = 0;
    for (const auto& lane : lanes_) total += ((*lane).*member)[index];
    return total;
  }

  // --- Memory contract (audited for long / large runs) ----------------------
  // Every collector below is either O(1) in run length or bounded by an
  // explicit config knob; nothing here may grow with event count:
  //  * hit_series_ / lookup_series_ / transfer_series_ —
  //    O(duration / metrics_window) cells by default; bounded to
  //    O(metrics_max_points) cells via pairwise window decimation when
  //    the `metrics_max_points` config key is set (see time_series.h).
  //  * lookup_hist_ / transfer_hist_ — fixed bucket arrays sized at
  //    construction (240 / 60 buckets + one overflow cell); Add() never
  //    allocates, so they are O(1) regardless of sample count.
  //  * scalar counters / serves_by_kind_ / stale_redirects_by_source_ —
  //    fixed-size PODs.
  //  * lanes_ — one sub-collector per locality lane plus control, sized
  //    by topology (num_localities + 1), not by events; folded_ is a
  //    single scratch collector reused across read bursts.
  // New collectors must state their bound here and use a config-gated
  // cap if they would otherwise grow with events.
  SimTime window_;
  size_t max_points_ = 0;
  RatioSeries hit_series_;
  TimeSeries lookup_series_;
  TimeSeries transfer_series_;
  Histogram lookup_hist_;
  Histogram transfer_hist_;
  uint64_t queries_submitted_ = 0;
  uint64_t server_hits_ = 0;
  uint64_t cache_evictions_ = 0;
  uint64_t stale_redirects_ = 0;
  std::array<uint64_t, static_cast<size_t>(StaleSource::kNumSources)>
      stale_redirects_by_source_{};
  uint64_t dir_index_evictions_ = 0;
  uint64_t dir_summary_fallthroughs_ = 0;
  uint64_t queries_timed_out_ = 0;
  uint64_t query_retries_ = 0;
  uint64_t suspicions_confirmed_ = 0;
  uint64_t routes_dropped_ = 0;
  std::array<uint64_t, static_cast<size_t>(ProviderKind::kNumKinds)>
      serves_by_kind_{};

  // Lane mode (empty = plain single collector). Each sub-collector is
  // written only via Self() from its owning lane; folds run at barriers.
  LANE_CONFINED std::vector<std::unique_ptr<Metrics>> lanes_;
  // Scratch for Folded(): rebuilt on read bursts, which only happen in
  // control context (observers, end of run) — never inside lane events.
  LANE_CONFINED mutable std::unique_ptr<Metrics> folded_;
};

}  // namespace flower

#endif  // FLOWERCDN_STATS_METRICS_H_
