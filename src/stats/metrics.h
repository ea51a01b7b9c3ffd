// Measurement collection for the paper's four metrics (Sec 6):
// background traffic, hit ratio, lookup latency, transfer distance.
#ifndef FLOWERCDN_STATS_METRICS_H_
#define FLOWERCDN_STATS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/histogram.h"
#include "common/time_series.h"
#include "common/types.h"
#include "net/network.h"

namespace flower {

class Metrics {
 public:
  explicit Metrics(const SimConfig& config);

  // --- Query lifecycle hooks --------------------------------------------------

  void OnQuerySubmitted(SimTime t) { ++queries_submitted_; (void)t; }

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
  void OnServerHit() { ++server_hits_; }

  // --- Cache pressure hooks (src/cache/ subsystem) ------------------------------

  /// A peer's bounded content store evicted `n` objects to make room.
  void OnCacheEvictions(uint64_t n) { cache_evictions_ += n; }

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
    ++stale_redirects_;
    ++stale_redirects_by_source_[static_cast<size_t>(source)];
  }

  /// A bounded DirectoryStore evicted `n` index entries for capacity
  /// (expiry via T_dead is not an eviction).
  void OnDirIndexEvictions(uint64_t n) { dir_index_evictions_ += n; }

  /// A dir-to-dir redirected query (sent here because a neighbor held a
  /// summary of this directory claiming the object) fell through to the
  /// origin server: the neighbor's summary of us was stale — under a
  /// bounded index typically because the holding entries were evicted.
  /// Kept out of `stale_redirects` (a new observation channel, not a
  /// re-attribution of the existing one).
  void OnDirSummaryFallthrough() { ++dir_summary_fallthroughs_; }

  // --- Query-hardening hooks (query_timeout / suspicion, src/core/) ------------

  /// A pending query hit its client-side timeout (query_timeout > 0).
  void OnQueryTimeout() { ++queries_timed_out_; }
  /// A timed-out query was re-driven down the pipeline (not yet the
  /// final origin-server fallback).
  void OnQueryRetry() { ++query_retries_; }
  /// Keepalive-ack suspicion crossed its miss threshold: a content peer
  /// declared its directory silently dead and started replacement.
  void OnSuspicionConfirmed() { ++suspicions_confirmed_; }

  // --- Routing hooks (src/dht/) ------------------------------------------------

  /// A ring node dropped a routed message after max_route_hops hops.
  void OnRouteDropped() { ++routes_dropped_; }

  /// Serve counts by provider kind (diagnostics for Fig 8 analyses).
  uint64_t ServesBy(ProviderKind kind) const {
    return serves_by_kind_[static_cast<size_t>(kind)];
  }

  // --- Results ------------------------------------------------------------------

  uint64_t queries_submitted() const { return queries_submitted_; }
  uint64_t queries_served() const { return hit_series_.total_trials(); }
  uint64_t server_hits() const { return server_hits_; }
  uint64_t cache_evictions() const { return cache_evictions_; }
  uint64_t stale_redirects() const { return stale_redirects_; }
  uint64_t StaleRedirectsBy(StaleSource source) const {
    return stale_redirects_by_source_[static_cast<size_t>(source)];
  }
  uint64_t dir_index_evictions() const { return dir_index_evictions_; }
  uint64_t dir_summary_fallthroughs() const {
    return dir_summary_fallthroughs_;
  }
  uint64_t queries_timed_out() const { return queries_timed_out_; }
  uint64_t query_retries() const { return query_retries_; }
  uint64_t suspicions_confirmed() const { return suspicions_confirmed_; }
  uint64_t routes_dropped() const { return routes_dropped_; }

  const RatioSeries& hit_series() const { return hit_series_; }
  const TimeSeries& lookup_series() const { return lookup_series_; }
  const TimeSeries& transfer_series() const { return transfer_series_; }
  const Histogram& lookup_histogram() const { return lookup_hist_; }
  const Histogram& transfer_histogram() const { return transfer_hist_; }

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
  // New collectors must state their bound here and use a config-gated
  // cap if they would otherwise grow with events.
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
};

}  // namespace flower

#endif  // FLOWERCDN_STATS_METRICS_H_
