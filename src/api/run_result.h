// The outcome of one experiment run: the paper's four metrics plus
// per-window trajectories, distributions and subsystem counters. Produced
// by Experiment::Run (src/api/experiment.h) and consumed by ResultSinks
// and by driver code directly.
#ifndef FLOWERCDN_API_RUN_RESULT_H_
#define FLOWERCDN_API_RUN_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace flower {

struct RunResult {
  /// Registry key of the system that ran ("flower", "squirrel", ...).
  std::string system = "flower";
  /// Human-readable system name ("Flower-CDN"), used in text summaries.
  std::string system_name = "Flower-CDN";
  /// Free-form row label (Experiment::WithLabel), carried into sinks so
  /// sweep output stays self-describing ("L=5", "capacity=64KB", ...).
  std::string label;

  uint64_t queries_submitted = 0;
  uint64_t queries_served = 0;
  uint64_t server_hits = 0;
  size_t participants = 0;

  double final_hit_ratio = 0;       // last metric windows (headline number)
  double cumulative_hit_ratio = 0;  // over the whole run
  double mean_lookup_ms = 0;
  double mean_transfer_ms = 0;
  double background_bps = 0;  // per content/directory peer, whole run

  // Per-window series (window = config.metrics_window).
  std::vector<double> hit_ratio_by_window;
  std::vector<double> lookup_ms_by_window;
  std::vector<double> transfer_ms_by_window;
  std::vector<double> background_bps_by_window;

  // Distributions.
  Histogram lookup_hist{25.0, 240};
  Histogram transfer_hist{25.0, 60};

  // Serve-path split (diagnostics: who provided the objects).
  uint64_t served_by_server = 0;
  uint64_t served_by_local_peer = 0;
  uint64_t served_by_remote_peer = 0;

  // Cache-pressure statistics (zero with the default unbounded policy).
  uint64_t cache_evictions = 0;
  uint64_t stale_redirects = 0;
  /// Split of `stale_redirects` by the channel that carried the stale
  /// claim: a peer's gossiped cache summary (the cache-eviction channel)
  /// vs. a directory index entry. Always sums to `stale_redirects`.
  uint64_t stale_redirects_peer_summary = 0;
  uint64_t stale_redirects_dir_index = 0;

  // Directory-index pressure (zero with the default unbounded index).
  /// Index entries evicted for `directory_index_capacity` (T_dead expiry
  /// is not an eviction).
  uint64_t dir_index_evictions = 0;
  /// Dir-to-dir redirected queries that fell through to the origin server
  /// because nothing backed the neighbor's summary claim anymore.
  uint64_t dir_summary_fallthroughs = 0;
  /// Always 0: there is no replication to decline. Kept because the
  /// flower_perf fingerprint still reads it.
  uint64_t replica_declines = 0;

  // Churn statistics (zero without churn).
  uint64_t churn_failures = 0;
  uint64_t churn_leaves = 0;
  uint64_t directory_promotions = 0;

  // Fault-injection / hardening statistics (src/net/fault_injector.h,
  // query_timeout, suspicion_keepalive_misses). Sinks emit them only when
  // `faults_enabled` is set, so default records stay byte-identical to
  // pre-fault-layer builds.
  bool faults_enabled = false;
  /// Messages dropped by the loss model (`fault_loss`).
  uint64_t injected_drops = 0;
  /// Messages swallowed by an active partition window.
  uint64_t partition_drops = 0;
  /// Undeliverable bounces suppressed because the destination crashed
  /// silently.
  uint64_t bounces_suppressed = 0;
  /// Churn crash-failures that went dark silently.
  uint64_t silent_crashes = 0;
  /// Client-side query timeouts fired / pipeline retries driven by them.
  uint64_t queries_timed_out = 0;
  uint64_t query_retries = 0;
  /// Keepalive-ack suspicion verdicts (directory declared silently dead).
  uint64_t suspicions_confirmed = 0;

  /// Routed messages (D-ring or Squirrel ring) dropped after
  /// max_route_hops hops. The text summary prints it when non-zero; the
  /// JSON sink does not carry it.
  uint64_t routes_dropped = 0;

  // End-of-run gossip state (flower only). No sink writes these; the
  // flower_perf fingerprint reads all four.
  /// Mean view size per joined content peer.
  double mean_active_view = 0;
  /// Always 0: flower has no passive view. Kept because the flower_perf
  /// fingerprint still reads it.
  double mean_passive_view = 0;
  /// Mean view entries with a usable content summary per joined peer —
  /// the state that actually serves peer-direct queries.
  double mean_summaries_known = 0;
  /// Always 0: flower summaries carry no version to lag behind. Kept
  /// because the flower_perf fingerprint still reads it.
  double mean_summary_staleness = 0;

  // Engine counters (simulation-kernel performance, src/sim/).
  /// Events dispatched by the Simulator run loop. Deterministic: a
  /// function of config + seed, so sinks write it.
  uint64_t events_processed = 0;
  /// Events cancelled before firing (timer rearms, churn teardowns).
  /// Deterministic; written by sinks.
  uint64_t events_cancelled = 0;
  /// Locality lanes of a sharded run (0 = serial engine). Deterministic
  /// and shard-count-invariant (lanes == localities), so sinks write it
  /// in sharded mode; the shard *grouping* and executor are execution
  /// details and deliberately stay out of sinks.
  int sim_lanes = 0;
  /// Events dispatched per lane (locality lanes in order, control lane
  /// last). Empty in serial mode. Deterministic; written by sinks.
  std::vector<uint64_t> events_by_lane;
  /// Host wall-clock of the run loop, in milliseconds. Nondeterministic
  /// by nature, so sinks deliberately do NOT write it — BENCH_*.json
  /// trajectories and sweep outputs must stay byte-identical between
  /// runs (and between serial and jobs=N sweeps). Read it from the
  /// returned RunResult; flower_perf (perf/) is the wall-clock
  /// benchmark.
  double wall_ms = 0;
  /// Peak resident set size of the process (MemStats::PeakRssBytes) at
  /// the end of the run, 0 on platforms without procfs. Host-dependent
  /// like wall_ms, so sinks deliberately do NOT write it; bench_scale
  /// owns the peers-vs-RSS trajectory in BENCH_scale.json.
  uint64_t peak_rss_bytes = 0;

  /// Simulation-engine throughput of this run (0 when too fast to time).
  double EventsPerSec() const {
    return wall_ms > 0 ? static_cast<double>(events_processed) /
                             (wall_ms / 1000.0)
                       : 0.0;
  }

  /// Steady-state background traffic: mean bits/s per peer over the last
  /// `tail_windows` metric windows (the startup flood has drained by
  /// then).
  double SteadyStateBackgroundBps(size_t tail_windows = 2) const {
    const std::vector<double>& s = background_bps_by_window;
    // A run ending on a window boundary (or a churn lull) can leave
    // empty trailing windows; they are artifacts, not steady state.
    size_t end = s.size();
    while (end > 0 && s[end - 1] <= 0) --end;
    if (end == 0) return background_bps;
    size_t n = tail_windows < end ? tail_windows : end;
    double sum = 0;
    for (size_t i = end - n; i < end; ++i) sum += s[i];
    return sum / static_cast<double>(n);
  }

  /// Fraction of submitted queries that were answered by anything at all
  /// (peer, directory or origin server) — the availability number of the
  /// fault experiments. 1.0 on a reliable network; with retries enabled
  /// it should stay at 1.0 under loss while latency degrades instead.
  double QuerySuccessRate() const {
    return queries_submitted > 0 ? static_cast<double>(queries_served) /
                                       static_cast<double>(queries_submitted)
                                 : 1.0;
  }

  /// Fraction of lookups resolved faster than `ms`.
  double LookupFractionBelow(double ms) const {
    return lookup_hist.FractionBelow(ms);
  }
  double TransferFractionBelow(double ms) const {
    return transfer_hist.FractionBelow(ms);
  }
};

/// Formats one summary line, used by TextSummarySink and the drivers.
std::string FormatRunSummary(const RunResult& result);

}  // namespace flower

#endif  // FLOWERCDN_API_RUN_RESULT_H_
