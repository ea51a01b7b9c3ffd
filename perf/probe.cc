// One measured run of one workload, timed or traced.
//
// A timed run is the plain public path: Experiment + the registry's
// "flower" system + the synthetic workload. A traced run adds spans only
// around the seams the harness owns: a CdnSystem decorator (factory,
// Setup, SubmitQuery, ParticipantAddresses) and a WorkloadSource
// decorator (Next), which also samples the engine, network and metrics
// counters once per slice (duration / 64). Every call is forwarded
// unchanged and no event is added, so a traced run simulates exactly
// what the timed run does.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/cdn_system.h"
#include "api/experiment.h"
#include "api/run_result.h"
#include "api/workload_source.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "json.h"
#include "net/message.h"
#include "net/network.h"
#include "perf.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace perf {

namespace {

using namespace flower;
using Clock = std::chrono::steady_clock;

// --- Workloads ----------------------------------------------------------------
//
// Simulated durations are short enough that one run takes a few seconds of
// host time, so a measurement of `--seconds` repeats the workload several
// times and reports medians. All arrivals are open-loop Poisson from the
// synthetic generator. The simulated world (topology, deployment, churn
// schedule) keeps the config's fixed seed; the benchmark's seed drives
// only the query stream, so runs with different seeds measure the same
// system under different inputs.

/// bench/bench_scale.cc's ScaleConfig, copied so later edits there do not
/// move this benchmark.
SimConfig ScaleConfig(int peers) {
  SimConfig c;
  c.num_topology_nodes = peers;
  c.num_localities = 6;
  c.num_websites = 30;
  c.num_active_websites = 4;
  c.num_objects_per_website = 2000;
  c.summary_bits_per_object = 2;
  c.max_content_overlay_size = peers / 20 > 40 ? peers / 20 : 40;
  c.duration = 6 * kHour;
  c.queries_per_second = peers > 300 ? peers * 0.15 : 45.0;
  c.metrics_max_points = 256;
  return c;
}

/// Scale runs last minutes, not hours: eight metric windows keep the
/// per-window series (and the steady-state background) meaningful.
SimConfig ScaleRun(int peers, SimTime duration) {
  SimConfig c = ScaleConfig(peers);
  c.duration = duration;
  c.metrics_window = duration / 8;
  return c;
}

/// The paper's own evaluation (Table 1 defaults). Periodic gossip,
/// keepalive and summary traffic plus client ingress; small peer tables
/// and event queue.
SimConfig Paper(bool smoke) {
  SimConfig c;
  if (smoke) c.num_topology_nodes = 1000;
  c.duration = smoke ? 1 * kHour : 6 * kHour;
  return c;
}

/// The 16k-peer point: query-heavy reads over large caches and a large
/// live event set; the engine queue and store lookups do most work.
SimConfig Scale16k(bool smoke) {
  return smoke ? ScaleRun(2000, 2 * kMinute) : ScaleRun(16000, 10 * kMinute);
}

/// Scale16k on four lane threads: the only workload that runs the lane
/// executor, its barriers and the cross-lane mailboxes.
SimConfig Scale16kThreads(bool smoke) {
  SimConfig c = Scale16k(smoke);
  c.shards = 4;
  return c;
}

/// The 100k-peer point: a cold start dominated by creating clients, first
/// fetches and index inserts; the largest set-up and RSS.
SimConfig Scale100k(bool smoke) {
  return smoke ? ScaleRun(4000, 1 * kMinute) : ScaleRun(100000, 3 * kMinute);
}

/// The failure and redirect path under churn with a 4 KB directory index
/// (bounded-index evictions, stale redirects, promotions). The client
/// timeout caps the cost of a query caught in a stale-redirect loop:
/// without it the loops run to the end of the run, and their total cost
/// swings by more than 10x between query streams of one world. With 1 h
/// sessions the background traffic alone still moves ~13% between
/// streams; 2 h sessions keep it near 4%.
SimConfig Churn(bool smoke) {
  SimConfig c = Paper(smoke);
  c.churn_enabled = true;
  c.churn_mean_session = 2 * kHour;
  c.churn_mean_downtime = 30 * kMinute;
  c.directory_index_policy = "lru";
  c.directory_index_capacity_bytes = 4096;
  c.query_timeout = 30 * kSecond;
  return c;
}

/// Queries stop duration / kDrainDivisor before the end (the drain), so
/// every query ends inside the run: served == submitted unless a query is
/// lost with a requester that left. Churn's drain (22 min) outlasts its
/// slowest query (timeouts of 30, 60, 120 and 240 s, then the origin);
/// scale100k's (11 s) outlasts its lookups (under 3 s).
constexpr SimTime kDrainDivisor = 16;

// --- Spans --------------------------------------------------------------------

constexpr int kSlices = 64;

enum Span : int {
  kCreate,        // registry factory
  kSetup,         // CdnSystem::Setup
  kSubmit,        // CdnSystem::SubmitQuery
  kNext,          // WorkloadSource::Next
  kParticipants,  // CdnSystem::ParticipantAddresses
  kNumSpans,
};
constexpr const char* kSpanNames[kNumSpans] = {"create", "setup", "submit",
                                               "next", "participants"};

struct Cell {
  uint64_t count = 0;
  uint64_t ns = 0;
};

/// Span totals per (span, slice).
using SpanCells = std::array<std::array<Cell, kSlices>, kNumSpans>;

// One block per thread. Only the owning thread writes its block; blocks
// are read after the run, when every lane thread has been joined.
Mutex g_threads_mu;
std::vector<std::unique_ptr<SpanCells>> g_threads GUARDED_BY(g_threads_mu);
// Set before the run starts, read by lane threads.
SimTime g_slice_ms = 1;

SpanCells& LocalSpans() {
  thread_local SpanCells* mine = nullptr;
  if (mine == nullptr) {
    MutexLock lock(&g_threads_mu);
    g_threads.push_back(std::make_unique<SpanCells>());
    mine = g_threads.back().get();
  }
  return *mine;
}

int SliceOf(SimTime t) {
  return static_cast<int>(std::min<SimTime>(t / g_slice_ms, kSlices - 1));
}

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Times one call into a layer and adds it to (span, slice of `now`).
class SpanTimer {
 public:
  SpanTimer(Span span, SimTime now)
      : cell_(&LocalSpans()[span][SliceOf(now)]),
        start_(Clock::now()) {}

  uint64_t Stop() {
    const uint64_t ns = NsSince(start_);
    ++cell_->count;
    cell_->ns += ns;
    return ns;
  }

 private:
  Cell* cell_;
  Clock::time_point start_;
};

/// The run's counters at one point of simulated time.
struct Sample {
  SimTime t = 0;
  double wall_ms = 0;  // since the loop started
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t undeliverable = 0;
  std::array<uint64_t, static_cast<size_t>(TrafficClass::kNumClasses)> bits{};
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t stale = 0;
};

/// What a traced run records outside the per-thread spans. Written only
/// on the control thread, where the workload driver and the background
/// sampler run, and after the loop.
///
/// Samples come from those hooks (Next at each slice boundary, FillStats
/// at the end), never from an Experiment observer: an observer's events
/// move the sharded engine's window barriers, which reorders same-time
/// cross-lane deliveries and changes the simulated run.
struct TraceLog {
  // The run's world, from the SystemContext the system factory receives.
  const Simulator* sim = nullptr;
  const Network* network = nullptr;
  const Metrics* metrics = nullptr;
  SimTime next_sample = 0;  // the next slice boundary to sample at
  Clock::time_point loop_start;
  std::vector<Sample> samples;
  uint64_t offered = 0;
  uint64_t next_calls = 0;
  uint64_t first_next_ns = 0;  // the one Next call before the loop
  uint64_t last_participants_ns = 0;  // the one call after the loop
  uint64_t blackout_checks = 0;
  uint64_t blacked_out = 0;

  void TakeSample() {
    Sample s;
    s.t = sim->Now();
    s.wall_ms = static_cast<double>(NsSince(loop_start)) / 1e6;
    s.events = sim->events_processed();
    s.messages = network->messages_sent();
    s.undeliverable = network->messages_undeliverable();
    for (size_t c = 0; c < s.bits.size(); ++c) {
      s.bits[c] = network->TotalBits(static_cast<TrafficClass>(c));
    }
    s.submitted = metrics->queries_submitted();
    s.served = metrics->queries_served();
    s.stale = metrics->stale_redirects();
    samples.push_back(s);
  }
};

class TracedSystem : public CdnSystem {
 public:
  TracedSystem(std::unique_ptr<CdnSystem> inner, TraceLog* log)
      : inner_(std::move(inner)), sim_(log->sim), log_(log) {}

  const char* key() const override { return inner_->key(); }
  const char* name() const override { return inner_->name(); }

  void Setup() override {
    SpanTimer timer(kSetup, 0);
    inner_->Setup();
    timer.Stop();
  }

  void SubmitQuery(NodeId node, WebsiteId website, ObjectId object) override {
    SpanTimer timer(kSubmit, sim_->Now());
    inner_->SubmitQuery(node, website, object);
    timer.Stop();
  }

  std::vector<PeerAddress> ParticipantAddresses() const override {
    SpanTimer timer(kParticipants, sim_->Now());
    std::vector<PeerAddress> peers = inner_->ParticipantAddresses();
    log_->last_participants_ns = timer.Stop();
    return peers;
  }

  const Deployment& deployment() const override {
    return inner_->deployment();
  }
  const WebsiteCatalog& catalog() const override { return inner_->catalog(); }

  bool IsBlackedOut(NodeId node) const override {
    const bool out = inner_->IsBlackedOut(node);
    ++log_->blackout_checks;
    log_->blacked_out += out ? 1 : 0;
    return out;
  }

  bool SupportsParallelShards() const override {
    return inner_->SupportsParallelShards();
  }
  void FillStats(RunResult* result) const override {
    inner_->FillStats(result);
    log_->TakeSample();  // the end of the run
  }

 private:
  std::unique_ptr<CdnSystem> inner_;
  const Simulator* sim_;
  TraceLog* log_;
};

/// The synthetic generator seeded with the workload seed and cut off at
/// `last_submit` (the drain). With a log it also times each Next call and
/// samples the run at the first call past each slice boundary.
class BenchSource : public WorkloadSource {
 public:
  BenchSource(const WorkloadEnv& env, uint64_t workload_seed,
              SimTime last_submit, TraceLog* log)
      : config_(*env.config), last_submit_(last_submit), log_(log) {
    config_.seed = workload_seed;
    WorkloadEnv seeded = env;
    seeded.config = &config_;
    inner_ = std::make_unique<SyntheticSource>(seeded);
  }

  const std::string& name() const override { return inner_->name(); }

  bool Next(QueryEvent* out) override {
    if (log_ == nullptr) return Pull(out);
    const SimTime now = log_->sim->Now();
    // The first call builds the workload driver; the second runs in the
    // first query event, so it marks the start of the loop.
    if (log_->next_calls == 1) log_->loop_start = Clock::now();
    if (log_->next_calls >= 1 && now >= log_->next_sample) {
      log_->TakeSample();
      while (log_->next_sample <= now) log_->next_sample += g_slice_ms;
    }
    SpanTimer timer(kNext, now);
    const bool more = Pull(out);
    const uint64_t ns = timer.Stop();
    if (log_->next_calls++ == 0) log_->first_next_ns = ns;
    log_->offered += more ? 1 : 0;
    return more;
  }

 private:
  bool Pull(QueryEvent* out) {
    return inner_->Next(out) && out->time < last_submit_;
  }

  SimConfig config_;  // the generator keeps a pointer to it
  std::unique_ptr<WorkloadSource> inner_;
  SimTime last_submit_;
  TraceLog* log_;
};

/// Mean cost of one span (two clock reads plus the cell update), for the
/// tracing-overhead estimate. Runs before the run, so the cell it borrows
/// is reset afterwards.
double SpanCostNs() {
  constexpr int kIterations = 200000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kIterations; ++i) SpanTimer(kNext, 0).Stop();
  const double ns = static_cast<double>(NsSince(start)) / kIterations;
  LocalSpans()[kNext][0] = Cell{};
  return ns;
}

// --- Fingerprint and checks ---------------------------------------------------

void Append(std::string* s, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, v);
  *s += buf;
}

void AppendSeries(std::string* s, const char* key,
                  const std::vector<double>& values) {
  *s += key;
  *s += "=[";
  for (double v : values) Append(s, "", v);
  *s += "];";
}

void AppendHistogram(std::string* s, const char* key, const Histogram& h) {
  *s += key;
  *s += "=[";
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    Append(s, "", static_cast<double>(h.bucket_count(i)));
  }
  Append(s, "overflow", static_cast<double>(h.overflow_count()));
  Append(s, "sum", h.sum());
  *s += "];";
}

/// FNV-1a digest of every simulated field of `r`.
std::string Fingerprint(const RunResult& r) {
  std::string s;
  const double counters[] = {
      static_cast<double>(r.events_processed),
      static_cast<double>(r.events_cancelled),
      static_cast<double>(r.queries_submitted),
      static_cast<double>(r.queries_served),
      static_cast<double>(r.server_hits),
      static_cast<double>(r.participants),
      r.final_hit_ratio,
      r.cumulative_hit_ratio,
      r.mean_lookup_ms,
      r.mean_transfer_ms,
      r.background_bps,
      static_cast<double>(r.served_by_server),
      static_cast<double>(r.served_by_local_peer),
      static_cast<double>(r.served_by_remote_peer),
      static_cast<double>(r.cache_evictions),
      static_cast<double>(r.stale_redirects),
      static_cast<double>(r.stale_redirects_peer_summary),
      static_cast<double>(r.stale_redirects_dir_index),
      static_cast<double>(r.dir_index_evictions),
      static_cast<double>(r.dir_summary_fallthroughs),
      static_cast<double>(r.replica_declines),
      static_cast<double>(r.churn_failures),
      static_cast<double>(r.churn_leaves),
      static_cast<double>(r.directory_promotions),
      static_cast<double>(r.injected_drops),
      static_cast<double>(r.queries_timed_out),
      static_cast<double>(r.query_retries),
      r.mean_active_view,
      r.mean_passive_view,
      r.mean_summaries_known,
      r.mean_summary_staleness,
      static_cast<double>(r.sim_lanes),
  };
  for (double v : counters) Append(&s, "", v);
  AppendSeries(&s, "hit", r.hit_ratio_by_window);
  AppendSeries(&s, "lookup", r.lookup_ms_by_window);
  AppendSeries(&s, "transfer", r.transfer_ms_by_window);
  AppendSeries(&s, "background", r.background_bps_by_window);
  AppendHistogram(&s, "lookup_hist", r.lookup_hist);
  AppendHistogram(&s, "transfer_hist", r.transfer_hist);
  AppendSeries(&s, "lanes", std::vector<double>(r.events_by_lane.begin(),
                                                r.events_by_lane.end()));

  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

/// The counter invariants every run must satisfy; the name of the first
/// one broken, or an empty string.
std::string CheckInvariants(const RunResult& r) {
  if (r.queries_served > r.queries_submitted) return "served <= submitted";
  if (r.served_by_server + r.served_by_local_peer + r.served_by_remote_peer !=
      r.queries_served) {
    return "served_by_{server,local_peer,remote_peer} sum to served";
  }
  if (r.stale_redirects_peer_summary + r.stale_redirects_dir_index !=
      r.stale_redirects) {
    return "stale_redirects_{peer_summary,dir_index} sum to stale_redirects";
  }
  // The histogram counts resolutions, and every attempt of a query may
  // resolve: the first, plus one per client timeout (a retry or the
  // origin fallback; a superseded attempt can still reach a provider).
  if (r.lookup_hist.count() > r.queries_submitted + r.queries_timed_out) {
    return "lookup_hist.count() <= submitted + queries_timed_out";
  }
  return "";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Traced-run analysis ------------------------------------------------------

struct SpanTotals {
  SpanCells cells{};
  std::array<Cell, kNumSpans> total{};
  /// Threads that recorded a span inside the run loop.
  int loop_threads = 0;
};

SpanTotals FoldSpans() {
  SpanTotals out;
  MutexLock lock(&g_threads_mu);
  for (const auto& block : g_threads) {
    bool in_loop = false;
    for (int s = 0; s < kNumSpans; ++s) {
      for (int i = 0; i < kSlices; ++i) {
        const Cell& c = (*block)[s][i];
        out.cells[s][i].count += c.count;
        out.cells[s][i].ns += c.ns;
        out.total[s].count += c.count;
        out.total[s].ns += c.ns;
        if (c.count > 0 && s != kCreate && s != kSetup) in_loop = true;
      }
    }
    out.loop_threads += in_loop ? 1 : 0;
  }
  return out;
}

void AddLayerMetrics(const SimConfig& config, const RunResult& r,
                     const TraceLog& log, const SpanTotals& spans,
                     double setup_ms, double span_cost_ns,
                     std::map<std::string, double>* v) {
  const double wall_ms = r.wall_ms;
  const double submitted = static_cast<double>(r.queries_submitted);
  const double served = static_cast<double>(r.queries_served);
  const double events = static_cast<double>(r.events_processed);
  const Cell& submit = spans.total[kSubmit];
  const Cell& next = spans.total[kNext];
  const Cell& participants = spans.total[kParticipants];

  (*v)["api.submit_ms"] = static_cast<double>(submit.ns) / 1e6;
  (*v)["api.submit_ns"] = Ratio(static_cast<double>(submit.ns),
                                static_cast<double>(submit.count));
  (*v)["api.accept_share"] =
      Ratio(submitted, static_cast<double>(submit.count));

  // Spans inside the loop: all but the one Next call made while the
  // workload driver is built and the one ParticipantAddresses call after
  // the loop. With lane threads the spans are CPU time summed over
  // threads, so the self time is the mean over the threads that ran them.
  // The 64 samples stay in the self time (microseconds each).
  const double inside_ns =
      static_cast<double>(submit.ns + next.ns - log.first_next_ns +
                          participants.ns - log.last_participants_ns);
  const double loop_self_ms =
      wall_ms - inside_ns / 1e6 / std::max(spans.loop_threads, 1);
  (*v)["run.loop_self_ms"] = loop_self_ms;
  (*v)["run.loop_self_share"] = Ratio(loop_self_ms, wall_ms);
  (*v)["sim.ns_per_event"] = Ratio(wall_ms * 1e6, events);

  (*v)["sim.events"] = events;
  (*v)["sim.events_cancelled"] = static_cast<double>(r.events_cancelled);
  (*v)["sim.events_per_query"] = Ratio(events, submitted);
  (*v)["core.stale_per_query"] =
      Ratio(static_cast<double>(r.stale_redirects), submitted);
  (*v)["core.stale_peer_summary"] =
      static_cast<double>(r.stale_redirects_peer_summary);
  (*v)["core.stale_dir_index"] =
      static_cast<double>(r.stale_redirects_dir_index);
  (*v)["core.dir_fallthroughs"] =
      static_cast<double>(r.dir_summary_fallthroughs);
  (*v)["core.timeouts_per_query"] =
      Ratio(static_cast<double>(r.queries_timed_out), submitted);

  const Sample& last = log.samples.back();  // taken in FillStats
  const double messages = static_cast<double>(last.messages);
  (*v)["net.messages"] = messages;
  (*v)["net.messages_per_query"] = Ratio(messages, submitted);
  (*v)["net.undeliverable_share"] =
      Ratio(static_cast<double>(last.undeliverable), messages);
  double all_bits = 0;
  for (size_t c = 0; c < last.bits.size(); ++c) {
    const double bits = static_cast<double>(last.bits[c]);
    (*v)[std::string("net.bits.") +
         TrafficClassName(static_cast<TrafficClass>(c))] = bits;
    all_bits += bits;
  }
  (*v)["gossip.bits_share"] = Ratio(
      static_cast<double>(
          last.bits[static_cast<size_t>(TrafficClass::kGossip)]),
      all_bits);
  (*v)["gossip.steady_bps"] = r.SteadyStateBackgroundBps();

  double lane_max = 0;
  double lane_sum = 0;
  const size_t lanes = r.events_by_lane.empty() ? 0
                                                : r.events_by_lane.size() - 1;
  for (size_t i = 0; i < lanes; ++i) {
    const double n = static_cast<double>(r.events_by_lane[i]);
    lane_max = std::max(lane_max, n);
    lane_sum += n;
  }
  (*v)["sim.lane_imbalance"] =
      lanes > 0 ? Ratio(lane_max, lane_sum / static_cast<double>(lanes)) : 1;

  const double create_ms = static_cast<double>(spans.total[kCreate].ns) / 1e6;
  const double system_ms = static_cast<double>(spans.total[kSetup].ns) / 1e6;
  (*v)["setup.create_ms"] = create_ms;
  (*v)["setup.system_ms"] = system_ms;
  (*v)["setup.world_ms"] = setup_ms - create_ms - system_ms;
  (*v)["mem.bytes_per_peer"] =
      Ratio(static_cast<double>(r.peak_rss_bytes), config.num_topology_nodes);

  (*v)["workload.next_ns"] = Ratio(static_cast<double>(next.ns),
                                   static_cast<double>(next.count));
  (*v)["workload.offered"] = static_cast<double>(log.offered);
  (*v)["workload.blackout_share"] =
      Ratio(static_cast<double>(log.blacked_out),
            static_cast<double>(log.blackout_checks));

  (*v)["core.served_local_share"] =
      Ratio(static_cast<double>(r.served_by_local_peer), served);
  (*v)["core.served_remote_share"] =
      Ratio(static_cast<double>(r.served_by_remote_peer), served);
  (*v)["core.served_server_share"] =
      Ratio(static_cast<double>(r.served_by_server), served);
  (*v)["core.promotions"] = static_cast<double>(r.directory_promotions);
  (*v)["core.churn_events"] =
      static_cast<double>(r.churn_failures + r.churn_leaves);
  (*v)["cache.dir_index_evictions"] =
      static_cast<double>(r.dir_index_evictions);

  (*v)["stats.participants_ms"] = static_cast<double>(participants.ns) / 1e6;
  (*v)["stats.lookup_overflow_share"] =
      Ratio(static_cast<double>(r.lookup_hist.overflow_count()),
            static_cast<double>(r.lookup_hist.count()));

  // Host time per simulated millisecond between consecutive samples (the
  // first measured from the loop start), against the whole run's rate;
  // and the share of host time spent before duration / 8.
  Sample prev;
  double max_rate = 0;
  double warmup_ms = 0;
  for (const Sample& s : log.samples) {
    if (s.t > prev.t) {
      max_rate = std::max(max_rate, (s.wall_ms - prev.wall_ms) /
                                        static_cast<double>(s.t - prev.t));
    }
    if (warmup_ms == 0 && s.t >= config.duration / 8) warmup_ms = s.wall_ms;
    prev = s;
  }
  (*v)["run.slice_skew"] =
      Ratio(max_rate, Ratio(last.wall_ms, static_cast<double>(last.t)));
  (*v)["run.warmup_share"] = Ratio(warmup_ms, last.wall_ms);

  const double loop_spans =
      static_cast<double>(submit.count + next.count + participants.count);
  (*v)["trace.overhead_share"] =
      Ratio(loop_spans * span_cost_ns / std::max(spans.loop_threads, 1),
            wall_ms * 1e6);
}

void WriteTrace(const std::string& path, const std::string& workload,
                uint64_t seed, const TraceLog& log, const SpanTotals& spans,
                const std::map<std::string, double>& values) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "flower_perf: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %" PRIu64 ",\n",
               JsonQuote(workload).c_str(), seed);
  std::fprintf(f, "  \"slices\": %d,\n  \"slice_ms\": %" PRId64 ",\n",
               kSlices, static_cast<int64_t>(g_slice_ms));
  std::fprintf(f, "  \"spans\": {\n");
  for (int s = 0; s < kNumSpans; ++s) {
    std::fprintf(f, "    \"%s\": {\"count\": [", kSpanNames[s]);
    for (int i = 0; i < kSlices; ++i) {
      std::fprintf(f, "%s%" PRIu64, i ? ", " : "", spans.cells[s][i].count);
    }
    std::fprintf(f, "],\n      \"ns\": [");
    for (int i = 0; i < kSlices; ++i) {
      std::fprintf(f, "%s%" PRIu64, i ? ", " : "", spans.cells[s][i].ns);
    }
    std::fprintf(f, "]}%s\n", s + 1 < kNumSpans ? "," : "");
  }
  std::fprintf(f, "  },\n  \"samples\": [\n");
  for (size_t i = 0; i < log.samples.size(); ++i) {
    const Sample& x = log.samples[i];
    std::fprintf(f,
                 "    {\"t_ms\": %" PRId64 ", \"wall_ms\": %.3f, "
                 "\"events\": %" PRIu64 ", \"messages\": %" PRIu64
                 ", \"undeliverable\": %" PRIu64 ", \"submitted\": %" PRIu64
                 ", \"served\": %" PRIu64 ", \"stale\": %" PRIu64
                 ", \"bits\": {",
                 static_cast<int64_t>(x.t), x.wall_ms, x.events, x.messages,
                 x.undeliverable, x.submitted, x.served, x.stale);
    for (size_t c = 0; c < x.bits.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %" PRIu64, c ? ", " : "",
                   TrafficClassName(static_cast<TrafficClass>(c)), x.bits[c]);
    }
    std::fprintf(f, "}}%s\n", i + 1 < log.samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": {\n");
  size_t i = 0;
  for (const auto& kv : values) {
    std::fprintf(f, "    %s: %.17g%s\n", JsonQuote(kv.first).c_str(),
                 kv.second, ++i < values.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"paper", Paper},
      {"scale16k", Scale16k},
      {"scale16k_threads", Scale16kThreads},
      {"scale100k", Scale100k},
      {"churn", Churn},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Record RunOnce(const Workload& workload, uint64_t seed, bool smoke,
               const std::string& trace_path) {
  const bool traced = !trace_path.empty();
  const SimConfig config = workload.config(smoke);
  g_slice_ms = config.duration / kSlices;
  const double span_cost_ns = traced ? SpanCostNs() : 0;

  TraceLog log;
  log.next_sample = g_slice_ms;
  TraceLog* log_ptr = traced ? &log : nullptr;
  const SimTime last_submit = config.duration - config.duration / kDrainDivisor;

  Experiment experiment(config);
  experiment.WithWorkload([seed, last_submit, log_ptr](const WorkloadEnv& env)
                              -> Result<std::unique_ptr<WorkloadSource>> {
    return std::unique_ptr<WorkloadSource>(
        new BenchSource(env, seed, last_submit, log_ptr));
  });
  if (traced) {
    experiment.WithSystem(
        [log_ptr](const SystemContext& ctx) -> std::unique_ptr<CdnSystem> {
          log_ptr->sim = ctx.sim;
          log_ptr->network = ctx.network;
          log_ptr->metrics = ctx.metrics;
          SpanTimer timer(kCreate, 0);
          Result<std::unique_ptr<CdnSystem>> inner =
              SystemRegistry::Instance().Create("flower", ctx);
          timer.Stop();
          if (!inner.ok()) return nullptr;
          return std::make_unique<TracedSystem>(std::move(inner).value(),
                                                log_ptr);
        });
  } else {
    experiment.WithSystem("flower");
  }

  const Clock::time_point start = Clock::now();
  Result<RunResult> run = experiment.TryRun();
  const double total_ms = static_cast<double>(NsSince(start)) / 1e6;

  Record record;
  if (!run.ok()) {
    record.failed_check = "run: " + run.status().ToString();
    return record;
  }
  const RunResult& r = run.value();
  std::map<std::string, double>& v = record.values;
  const double setup_ms = total_ms - r.wall_ms;
  // Raw host times; flower_perf.cc scales them to the reference host speed.
  v["host.loop_s"] = r.wall_ms / 1e3;
  v["host.setup_s"] = setup_ms / 1e3;
  v["peak_rss_mb"] = static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0);
  v["hit_ratio"] = r.cumulative_hit_ratio;
  v["lookup_p50_ms"] = r.lookup_hist.Percentile(50);
  v["lookup_p99_ms"] = r.lookup_hist.Percentile(99);
  v["transfer_p50_ms"] = r.transfer_hist.Percentile(50);
  v["transfer_p99_ms"] = r.transfer_hist.Percentile(99);
  v["background_bps"] = r.background_bps;
  v["query_success"] = r.QuerySuccessRate();
  v["queries_submitted"] = static_cast<double>(r.queries_submitted);
  v["queries_served"] = static_cast<double>(r.queries_served);
  record.fingerprint = Fingerprint(r);
  record.failed_check = CheckInvariants(r);

  if (traced) {
    const SpanTotals spans = FoldSpans();
    AddLayerMetrics(config, r, log, spans, setup_ms, span_cost_ns, &v);
    WriteTrace(trace_path, workload.name, seed, log, spans, v);
  }
  return record;
}

}  // namespace perf
