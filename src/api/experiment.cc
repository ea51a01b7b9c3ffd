#include "api/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "common/mem_stats.h"
#include "core/deployment.h"
#include "core/flower_ids.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace flower {

namespace {

/// Schedules workload events one at a time (keeps the event heap small),
/// skipping originators the system reports as blacked out by churn. In
/// sharded mode the generator chain lives on the control lane and each
/// query is injected onto the originating node's lane at its submit time
/// (the control phase always runs before the lane phase of a window, so
/// same-window injection is safe).
class WorkloadDriver {
 public:
  WorkloadDriver(Simulator* sim, WorkloadSource* source, CdnSystem* system)
      : sim_(sim), source_(source), system_(system) {
    ScheduleNext();
  }

 private:
  void ScheduleNext() {
    QueryEvent ev;
    if (!source_->Next(&ev)) return;
    auto inject = [this, ev]() {
      if (!system_->IsBlackedOut(ev.node)) {
        if (sim_->sharded()) {
          CdnSystem* system = system_;
          auto submit = [system, ev]() {
            system->SubmitQuery(ev.node, ev.website, ev.object);
          };
          static_assert(EventFn::FitsInline<decltype(submit)>());
          sim_->ScheduleOnLane(sim_->LaneForNode(ev.node), ev.time,
                               std::move(submit));
        } else {
          system_->SubmitQuery(ev.node, ev.website, ev.object);
        }
      }
      ScheduleNext();
    };
    static_assert(EventFn::FitsInline<decltype(inject)>());
    sim_->ScheduleAt(ev.time, std::move(inject));
  }

  Simulator* sim_;
  WorkloadSource* source_;
  CdnSystem* system_;
};

/// Samples per-window background traffic for Figure 5.
class BackgroundSampler {
 public:
  BackgroundSampler(Simulator* sim, const Network* network, SimTime window,
                    CdnSystem* system)
      : network_(network), system_(system) {
    sim->SchedulePeriodic(&timer_, window, window, [this, window]() {
      std::vector<PeerAddress> peers = system_->ParticipantAddresses();
      uint64_t bits = network_->BackgroundBits(peers);
      double window_s = static_cast<double>(window) / kSecond;
      double bps = 0;
      if (!peers.empty()) {
        uint64_t delta = bits >= prev_bits_ ? bits - prev_bits_ : 0;
        bps = static_cast<double>(delta) / window_s /
              static_cast<double>(peers.size());
      }
      prev_bits_ = bits;
      samples_.push_back(bps);
    });
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  const Network* network_;
  CdnSystem* system_;
  uint64_t prev_bits_ = 0;
  std::vector<double> samples_;
  Simulator::PeriodicTimer timer_;
};

void CollectSeries(const Metrics& metrics, RunResult* result) {
  const RatioSeries& hits = metrics.hit_series();
  for (size_t i = 0; i < hits.NumWindows(); ++i) {
    result->hit_ratio_by_window.push_back(hits.WindowRatio(i));
  }
  const TimeSeries& lookups = metrics.lookup_series();
  for (size_t i = 0; i < lookups.NumWindows(); ++i) {
    result->lookup_ms_by_window.push_back(lookups.WindowMean(i));
  }
  const TimeSeries& transfers = metrics.transfer_series();
  for (size_t i = 0; i < transfers.NumWindows(); ++i) {
    result->transfer_ms_by_window.push_back(transfers.WindowMean(i));
  }
  result->served_by_server =
      metrics.ServesBy(Metrics::ProviderKind::kServer);
  result->served_by_local_peer =
      metrics.ServesBy(Metrics::ProviderKind::kLocalPeer);
  result->served_by_remote_peer =
      metrics.ServesBy(Metrics::ProviderKind::kRemotePeer);
  result->queries_submitted = metrics.queries_submitted();
  result->queries_served = metrics.queries_served();
  result->server_hits = metrics.server_hits();
  result->cache_evictions = metrics.cache_evictions();
  result->stale_redirects = metrics.stale_redirects();
  result->stale_redirects_peer_summary =
      metrics.StaleRedirectsBy(Metrics::StaleSource::kPeerSummary);
  result->stale_redirects_dir_index =
      metrics.StaleRedirectsBy(Metrics::StaleSource::kDirIndex);
  result->dir_index_evictions = metrics.dir_index_evictions();
  result->dir_summary_fallthroughs = metrics.dir_summary_fallthroughs();
  result->queries_timed_out = metrics.queries_timed_out();
  result->query_retries = metrics.query_retries();
  result->suspicions_confirmed = metrics.suspicions_confirmed();
  result->routes_dropped = metrics.routes_dropped();
  result->final_hit_ratio = metrics.FinalHitRatio();
  result->cumulative_hit_ratio = metrics.CumulativeHitRatio();
  result->mean_lookup_ms = metrics.MeanLookupLatency();
  result->mean_transfer_ms = metrics.MeanTransferDistance();
  result->lookup_hist = metrics.lookup_histogram();
  result->transfer_hist = metrics.transfer_histogram();
}

/// The checks that need every override applied: key combinations that
/// would crash a run. The D-ring ids must name every locality and
/// directory instance, and the topology must hold the origin servers and
/// the initial directories.
Status CheckWorld(const SimConfig& c) {
  const int instances = std::max(c.scaleup_instances, 1);
  Status ids = DRingIdScheme::Check(
      c.chord_id_bits, c.locality_id_bits, c.scaleup_extra_bits,
      static_cast<uint64_t>(c.num_localities),
      static_cast<uint64_t>(instances));
  if (!ids.ok()) return ids;
  const uint64_t needed = Deployment::NodesNeeded(c);
  if (c.num_topology_nodes < 0 ||
      needed > static_cast<uint64_t>(c.num_topology_nodes)) {
    return Status::InvalidArgument(
        "num_topology_nodes=" + std::to_string(c.num_topology_nodes) +
        " cannot hold num_websites=" + std::to_string(c.num_websites) +
        " origin servers plus num_websites x num_localities=" +
        std::to_string(c.num_localities) + " x scaleup_instances=" +
        std::to_string(instances) + " directories");
  }
  return Status::Ok();
}

}  // namespace

Experiment::Experiment(SimConfig config) : config_(std::move(config)) {}

Experiment& Experiment::WithSystem(std::string registry_key) {
  system_key_ = std::move(registry_key);
  system_factory_ = nullptr;
  return *this;
}

Experiment& Experiment::WithSystem(SystemFactory factory) {
  system_factory_ = std::move(factory);
  system_key_.clear();
  return *this;
}

Experiment& Experiment::WithWorkload(WorkloadFactory factory) {
  workload_factory_ = std::move(factory);
  return *this;
}

Experiment& Experiment::WithLabel(std::string label) {
  label_ = std::move(label);
  return *this;
}

Experiment& Experiment::AddSink(ResultSink* sink) {
  sinks_.push_back(sink);
  return *this;
}

Experiment& Experiment::At(SimTime t, ObserverFn fn) {
  at_observers_.emplace_back(t, std::move(fn));
  return *this;
}

Experiment& Experiment::Every(SimTime period, ObserverFn fn) {
  every_observers_.emplace_back(period, std::move(fn));
  return *this;
}

Result<RunResult> Experiment::TryRun() {
  if (Status valid = CheckWorld(config_); !valid.ok()) return valid;
  // The construction order below (simulator, topology, network, metrics,
  // system, churn-in-Setup, workload, driver, sampler) is exactly the v1
  // runner's; preserving it keeps every RNG draw, and therefore every
  // metric value, bit-identical across the API migration.
  Simulator sim(config_.seed);
  Topology topology(config_, sim.rng());
  // shards >= 2 switches the engine into locality-lane mode before any
  // component is built on top of it. Lane RNG streams are derived from
  // the seed (not drawn from the master), so the static world above is
  // the same one a serial run sees.
  const bool sharded = config_.shards > 1 && topology.num_localities() > 1;
  if (sharded) {
    sim.EnableSharding(MakeLocalityShardPlan(topology, config_.shards));
  }
  Network network(&sim, &topology);
  // The fault injector derives its per-lane streams from the seed (no
  // master-RNG draw), so constructing and attaching it here leaves the
  // static world identical; with every fault_* key off it is inactive and
  // the network never consults it.
  Result<FaultPlan> fault_plan = FaultPlan::FromConfig(config_);
  if (!fault_plan.ok()) return fault_plan.status();
  FaultInjector fault_injector(std::move(fault_plan).value(), &sim,
                               &topology);
  network.AttachFaultInjector(&fault_injector);
  Metrics metrics(config_);
  if (sharded) metrics.EnableLanes(topology.num_localities());

  SystemContext ctx;
  ctx.config = &config_;
  ctx.sim = &sim;
  ctx.network = &network;
  ctx.topology = &topology;
  ctx.metrics = &metrics;

  std::unique_ptr<CdnSystem> system;
  if (system_factory_ != nullptr) {
    system = system_factory_(ctx);
    if (system == nullptr) {
      return Status::InvalidArgument("system factory returned null");
    }
  } else {
    const std::string& key =
        system_key_.empty() ? config_.system : system_key_;
    Result<std::unique_ptr<CdnSystem>> created =
        SystemRegistry::Instance().Create(key, ctx);
    if (!created.ok()) return created.status();
    system = std::move(created).value();
  }
  system->Setup();

  WorkloadEnv env;
  env.config = &config_;
  env.deployment = &system->deployment();
  env.catalog = &system->catalog();
  WorkloadFactory make_workload = workload_factory_;
  if (make_workload == nullptr) make_workload = SyntheticWorkload();
  Result<std::unique_ptr<WorkloadSource>> source = make_workload(env);
  if (!source.ok()) return source.status();
  if (source.value() == nullptr) {
    return Status::InvalidArgument("workload factory returned null");
  }

  WorkloadDriver driver(&sim, source.value().get(), system.get());
  BackgroundSampler sampler(&sim, &network, config_.metrics_window,
                            system.get());

  ObserverContext octx;
  octx.sim = &sim;
  octx.config = &config_;
  octx.metrics = &metrics;
  octx.system = system.get();
  octx.network = &network;
  // A deque: each scheduled tick points at its timer.
  std::deque<Simulator::PeriodicTimer> observer_timers;
  Simulator* sim_ptr = &sim;
  for (const auto& obs : at_observers_) {
    ObserverFn fn = obs.second;
    sim.ScheduleAt(obs.first, [octx, sim_ptr, fn]() mutable {
      octx.now = sim_ptr->Now();
      fn(octx);
    });
  }
  for (const auto& obs : every_observers_) {
    ObserverFn fn = obs.second;
    sim.SchedulePeriodic(&observer_timers.emplace_back(), obs.first,
                         obs.first, [octx, sim_ptr, fn]() mutable {
                           octx.now = sim_ptr->Now();
                           fn(octx);
                         });
  }

  // wall_ms is a diagnostic (engine line / RunResult.wall_ms only); it
  // never feeds events, RNG draws or metrics.
  // detlint: allow(wall-clock) — diagnostics-only wall_ms timing
  const auto wall_start = std::chrono::steady_clock::now();
  if (sharded) {
    // Threads need lane-isolated system state, so the system decides.
    // Either executor runs the identical deterministic schedule.
    const ShardedSimulator::Executor executor =
        system->SupportsParallelShards()
            ? ShardedSimulator::Executor::kThreads
            : ShardedSimulator::Executor::kSerial;
    ShardedSimulator coordinator(&sim, executor);
    coordinator.RunUntil(config_.duration);
  } else {
    sim.RunUntil(config_.duration);
  }
  // detlint: allow(wall-clock) — same wall_ms diagnostic as above.
  const auto wall_end = std::chrono::steady_clock::now();
  for (Simulator::PeriodicTimer& timer : observer_timers) timer.Cancel();

  RunResult result;
  result.events_processed = sim.events_processed();
  result.events_cancelled = sim.events_cancelled();
  if (sharded) {
    result.sim_lanes = topology.num_localities();
    result.events_by_lane = sim.LaneEventCounts();
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  // Same reproducibility rule as wall_ms: RunResult-only, never sinks.
  result.peak_rss_bytes = MemStats::PeakRssBytes();
  result.system = system->key();
  result.system_name = system->name();
  result.label = label_;
  // Fault/hardening block: emitted by sinks only when the subsystem was
  // on (injector active or a hardening knob set), so default records
  // stay byte-identical.
  result.faults_enabled = fault_injector.active() ||
                          config_.query_timeout > 0 ||
                          config_.suspicion_keepalive_misses > 0;
  result.injected_drops = fault_injector.injected_drops();
  result.partition_drops = fault_injector.partition_drops();
  result.bounces_suppressed = fault_injector.bounces_suppressed();
  result.silent_crashes = fault_injector.silent_crashes();
  CollectSeries(metrics, &result);
  result.background_bps_by_window = sampler.samples();
  std::vector<PeerAddress> peers = system->ParticipantAddresses();
  result.participants = peers.size();
  result.background_bps =
      Metrics::BackgroundBps(network, peers, config_.duration);
  system->FillStats(&result);

  for (ResultSink* sink : sinks_) sink->Write(config_, result);
  return result;
}

RunResult Experiment::Run() {
  Result<RunResult> result = TryRun();
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    // exit() skips stack unwinding; flush the attached sinks so results
    // already collected by earlier runs of a sweep are not lost.
    for (ResultSink* sink : sinks_) sink->Flush();
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace flower
