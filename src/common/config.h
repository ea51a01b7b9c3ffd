// Simulation configuration: every tunable of the system in one struct,
// with defaults from the paper's Table 1 and Section 6.1.
#ifndef FLOWERCDN_COMMON_CONFIG_H_
#define FLOWERCDN_COMMON_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace flower {

struct SimConfig {
  // --- Reproducibility -----------------------------------------------------
  uint64_t seed = 42;

  // --- Experiment composition (src/api/) -----------------------------------
  /// Which system an Experiment runs, by SystemRegistry key:
  /// "flower" | "squirrel" (or any registered key). Validated when the
  /// experiment is built, not here, so embedders can register systems
  /// the config parser has never heard of.
  std::string system = "flower";

  // --- Sharded intra-run simulation (src/sim/sharded_simulator.h) ----------
  /// >= 2 partitions one run into per-locality event lanes executed in
  /// conservative lookahead windows, packed into min(shards, localities)
  /// executor groups. 1 (default) is the historical serial engine,
  /// bit-identical to pre-sharding builds. Shard groups run on a worker
  /// pool exactly when the system keeps lane state isolated (Flower
  /// without churn) and in lane order on one thread otherwise. Sharded
  /// output is a pure function of (config, seed): byte-identical for
  /// every shards >= 2, either executor, and every repetition — but it is
  /// a *different* deterministic schedule than shards=1 (window-phased
  /// dispatch, per-lane RNG streams), so compare sharded runs with
  /// sharded runs.
  int shards = 1;

  // --- Underlying topology (paper Table 1 / BRITE-inspired model) ----------
  int num_topology_nodes = 5000;
  int num_localities = 6;          // k
  SimTime min_intra_latency = 10;  // ms, link latency range 10..500 overall
  SimTime max_intra_latency = 100;
  SimTime min_inter_latency = 100;
  SimTime max_inter_latency = 500;
  /// Relative population of each locality ("non-uniformly populated").
  /// Resized/renormalized to num_localities.
  std::vector<double> locality_weights = {0.28, 0.22, 0.17, 0.13, 0.11, 0.09};

  // --- Websites and objects -------------------------------------------------
  int num_websites = 100;             // |W| on the D-ring
  int num_active_websites = 6;        // websites receiving queries
  int num_objects_per_website = 500;  // paper text Sec 6.1 (Table 1 says 100)
  double zipf_alpha = 0.8;            // object popularity skew
  /// Size of every object: a 10 KB web page (paper Table 1).
  uint64_t object_size_bits = 10 * 8 * 1024;

  // --- Peer cache (src/cache/; bounded peer storage) ------------------------
  /// Eviction policy of every peer's content store: "unbounded" (never
  /// evict: the paper's Sec 4 keep-everything peers; with a finite
  /// capacity the store fills, then turns new objects away) | "lru"
  /// (evict the least recently used object).
  std::string cache_policy = "unbounded";
  /// Per-peer storage budget in bytes; 0 = unlimited (seed behavior).
  uint64_t cache_capacity_bytes = 0;

  // --- Directory index (src/cache/; bounded directory-side storage) ----------
  /// Eviction policy of every directory peer's index of its overlay:
  /// "unbounded" (never evict: with capacity 0 the index holds every
  /// content peer, the paper's Sec 3.3 model; with a finite capacity it
  /// fills, then turns new peers away) | "lru" (evict the entry with the
  /// oldest contact).
  std::string directory_index_policy = "unbounded";
  /// Per-directory index budget in bytes of accounted entry footprint
  /// (DirectoryStore::FootprintBytes); 0 = unbounded. The config key
  /// `directory_index_capacity` also accepts the value "unbounded".
  uint64_t directory_index_capacity_bytes = 0;

  // --- Overlay / membership -------------------------------------------------
  int max_content_overlay_size = 100;  // S_co

  // --- Workload --------------------------------------------------------------
  double queries_per_second = 6.0;
  SimTime duration = 24 * kHour;

  // --- Gossip (paper Table 1 defaults) ---------------------------------------
  SimTime gossip_period = 30 * kMinute;  // T_gossip
  int gossip_length = 10;                // L_gossip, entries per exchange
  int view_size = 50;                    // V_gossip
  double push_threshold = 0.1;           // fraction of changed entries
  SimTime keepalive_period = 10 * kMinute;
  int dead_age_limit = 4;  // T_dead, in age ticks (aged every T_gossip)
  /// View entries older than this many gossip rounds are treated as dead
  /// contacts and dropped (prevents dead peers from circulating in
  /// exchanged view subsets indefinitely).
  int view_age_limit = 12;

  // --- Summaries (Fan et al. sizing, paper Table 1) ---------------------------
  int summary_bits_per_object = 8;  // >= 1
  int summary_num_hashes = 5;       // 1..BloomProbe::kMaxHashes (16)
  /// Directory summary refresh threshold: fraction of new object ids not yet
  /// reflected in the last summary sent to neighbors.
  double directory_summary_threshold = 0.1;

  // --- DHT -------------------------------------------------------------------
  int chord_id_bits = 40;        // m (website bits + locality bits + extra)
  int locality_id_bits = 8;      // m1
  int scaleup_extra_bits = 0;    // b (Sec 5.3), 0 = one directory per (ws,loc)
  /// Directory instances created per (website, locality) at setup; must be
  /// <= 2^scaleup_extra_bits. With >1, a full overlay forwards new clients
  /// to the next instance's overlay (Sec 5.3).
  int scaleup_instances = 1;

  // --- Churn (disabled by default; used in churn experiments) -----------------
  bool churn_enabled = false;
  SimTime churn_mean_session = 2 * kHour;
  SimTime churn_mean_downtime = 30 * kMinute;
  double churn_fail_probability = 0.5;  // fail vs. graceful leave

  // --- Fault injection (src/net/fault_injector.h; all defaults off) ---------
  /// Message loss probability in [0, 1], applied to every traffic class
  /// ("0.05"). Empty = no loss. Kept as written, so the config line
  /// prints it as given.
  std::string fault_loss;
  /// Scheduled partition windows: ";"-separated "A|B@START-END" cuts where
  /// each side is a locality id or "*" (everyone else), e.g.
  /// "0|1@30min-1h;2|*@10min-20min". Messages crossing a cut during its
  /// window are dropped.
  std::string fault_partitions;
  /// Probability that a churn crash-failure goes dark *silently*: the peer
  /// is unregistered but senders get no undeliverable bounce, defeating
  /// bounce-based failure detection (requires churn_enabled).
  double fault_silent_crash_probability = 0;

  // --- Query hardening (timeout/retry; 0 = off, the paper's model) ----------
  /// Client-side query timeout: a pending query unanswered for this long
  /// is retried with exponential backoff (attempt k waits
  /// query_timeout * 2^k; stage-aware: re-pick a contact, re-route via
  /// the D-ring) and finally sent to the origin server after
  /// query_max_retries attempts. 0 disables timeouts (bounce-driven
  /// failure handling only, the seed behavior).
  SimTime query_timeout = 0;
  /// Retries before falling back to the origin server.
  int query_max_retries = 3;
  /// After this many consecutive unacknowledged keepalives a content peer
  /// suspects its directory has silently crashed and starts replacement
  /// (keepalives request acks only when this is > 0). 0 = off.
  int suspicion_keepalive_misses = 0;

  // --- Metrics -------------------------------------------------------------
  SimTime metrics_window = 30 * kMinute;
  /// Cap on stored cells per metric time series (0 = unbounded, the
  /// byte-identical default). When a long run would exceed the cap, the
  /// series coalesces adjacent windows pairwise (decimation), keeping
  /// memory O(metrics_max_points) instead of O(duration/metrics_window).
  size_t metrics_max_points = 0;

  /// Applies a "key=value" override; returns an error for unknown keys or
  /// malformed values. Times accept suffixes ms, s, min, h.
  Status Apply(const std::string& key, const std::string& value);

  /// Applies argv-style overrides ("key=value" tokens).
  Status ApplyArgs(int argc, char** argv);

  /// Pretty-prints the configuration.
  std::string ToString() const;
};

/// Parses a duration with the config time suffixes ("500", "500ms",
/// "30s", "30min", "24h"). Shared with spec parsers layered above the
/// config (fault plans).
bool ParseTimeString(const std::string& v, SimTime* out);

}  // namespace flower

#endif  // FLOWERCDN_COMMON_CONFIG_H_
