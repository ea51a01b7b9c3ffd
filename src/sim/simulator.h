// Discrete-event simulation kernel: a virtual clock plus an event queue.
//
// This is the PeerSim substitute (see DESIGN.md): deterministic given a
// seed, with a per-simulation master Rng from which all component
// generators are forked.
//
// Serial mode (the default) is exactly the historical single-queue
// engine. EnableSharding(plan) switches the kernel into sharded mode:
// the event population is partitioned into per-locality *lanes*, each
// with its own pooled EventQueue, virtual clock and RNG stream, plus an
// implicit *control* lane (workload injection, observers, samplers) that
// keeps the historical queue. Scheduling calls made while a lane event
// is dispatching land on that lane; cross-lane work is routed through a
// stamped outbox that a ShardedSimulator (sharded_simulator.h) merges at
// conservative window barriers. Dispatch order — and therefore every
// metric and RNG draw — is a pure function of (config, seed, locality
// partition): it does not depend on the executor's thread count or on
// how lanes are packed into shard groups.
#ifndef FLOWERCDN_SIM_SIMULATOR_H_
#define FLOWERCDN_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/shard_plan.h"

namespace flower {

/// Lane executing on the current thread: a lane index in [0, num_lanes)
/// while a sharded Simulator dispatches a lane event on this thread,
/// Simulator::kControlLane otherwise (serial mode, setup, control phase,
/// barriers). Metrics and traffic accounting use this to route samples
/// into per-lane collectors without threading a lane id through every
/// peer call.
int CurrentSimLane();

class Simulator {
 public:
  explicit Simulator(uint64_t seed);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time: the executing lane's clock in sharded mode
  /// (lanes at the same wall point may differ by up to the lookahead),
  /// the global clock otherwise.
  SimTime Now() const {
    if (shard_ != nullptr) {
      int lane = CurrentSimLane();
      if (lane >= 0) return shard_->lanes[static_cast<size_t>(lane)]->now;
    }
    return now_;
  }

  /// Schedules fn to run after the given delay (>= 0) on the lane
  /// executing on this thread (the only queue in serial mode). Accepts
  /// any callable (EventFn stores it inline when it fits, see
  /// event_fn.h); move-only closures are fine.
  EventHandle Schedule(SimTime delay, EventFn fn);

  /// Schedules fn at an absolute time (>= Now()) on the executing lane.
  EventHandle ScheduleAt(SimTime t, EventFn fn);

  template <typename F>
  struct PeriodicTick;

  /// A periodic timer, embedded in its owner: the handle of the next
  /// occurrence plus the period, 24 bytes and no heap state. Cancel()
  /// stops it, also from inside its own callback, and so does
  /// destruction. Neither copyable nor movable: the scheduled closure
  /// points at the timer, so owners keep timers where they never move (a
  /// member, a std::deque), must not outlive the simulator, and must not
  /// be destroyed from inside their own timer's callback.
  class PeriodicTimer {
   public:
    PeriodicTimer() = default;
    ~PeriodicTimer() { Cancel(); }
    PeriodicTimer(const PeriodicTimer&) = delete;
    PeriodicTimer& operator=(const PeriodicTimer&) = delete;

    void Cancel() {
      period_ = 0;
      next_.Cancel();
    }
    bool active() const { return period_ > 0; }

   private:
    friend class Simulator;
    template <typename F>
    friend struct PeriodicTick;
    EventHandle next_;
    SimTime period_ = 0;  // 0 once cancelled
  };

  /// The closure of one periodic occurrence: it runs the callable, then
  /// moves itself into the next occurrence, so a firing neither copies
  /// nor allocates (when it fits EventFn's inline budget, as a tick over
  /// an owner's `this` does).
  template <typename F>
  struct PeriodicTick {
    PeriodicTimer* timer;
    Simulator* sim;
    F fn;

    void operator()() {
      fn();
      // Cancelled, or restarted, from inside fn: this chain ends.
      if (!timer->active() || timer->next_.pending()) return;
      timer->next_ = sim->Schedule(timer->period_, std::move(*this));
    }
  };

  /// Starts `timer` (cancelling any run it had): fn fires every `period`
  /// on the lane executing this call, first after `initial_delay`.
  template <typename F>
  void SchedulePeriodic(PeriodicTimer* timer, SimTime initial_delay,
                        SimTime period, F fn) {
    assert(period > 0);
    timer->Cancel();
    timer->period_ = period;
    timer->next_ = Schedule(
        initial_delay, PeriodicTick<F>{timer, this, std::move(fn)});
  }

  /// Runs events until the queue is empty. Serial mode only; sharded
  /// runs go through ShardedSimulator.
  void Run();

  /// Runs events with time <= t, then sets Now() to t (if queue drained).
  /// Serial mode only.
  void RunUntil(SimTime t);

  /// Runs for a relative duration from the current time.
  void RunFor(SimTime duration) { RunUntil(Now() + duration); }

  /// Master generator for this simulation. Fork per component (setup
  /// path); lane-scoped randomness should come from lane_rng instead.
  Rng* rng() { return &rng_; }

  /// The master seed (for deriving independent per-lane streams via
  /// Mix64, the churn/fault-injector pattern — never reseed from rng()).
  uint64_t seed() const { return seed_; }

  uint64_t events_processed() const;
  uint64_t events_cancelled() const;

  // --- Sharded mode ---------------------------------------------------------

  /// CurrentSimLane()'s value outside lane dispatch.
  static constexpr int kControlLane = -1;

  /// Switches this simulator into sharded mode. Must be called before
  /// any peer is created or event scheduled (lane RNG streams are seeded
  /// from the master seed, not drawn from the master generator, so the
  /// static world — topology, deployment, catalog — is identical to a
  /// serial run with the same seed).
  void EnableSharding(ShardPlan plan);

  bool sharded() const { return shard_ != nullptr; }
  const ShardPlan& shard_plan() const { return shard_->plan; }

  /// Lane owning a topology node / peer address. kControlLane in serial
  /// mode.
  int LaneForNode(NodeId node) const {
    if (shard_ == nullptr) return kControlLane;
    return static_cast<int>(shard_->plan.node_lane[node]);
  }

  /// The lane's private RNG stream (per-lane client seeding, sharded
  /// churn). Deterministic per (seed, lane).
  Rng* lane_rng(int lane) {
    return &shard_->lanes[static_cast<size_t>(lane)]->rng;
  }

  SimTime lane_now(int lane) const {
    return shard_->lanes[static_cast<size_t>(lane)]->now;
  }

  /// Pushes fn at absolute time t directly into `lane`'s queue. Only
  /// valid while that lane is idle: setup, the control phase of a window
  /// (the control lane always runs before the locality lanes, so
  /// injecting at times inside the current window is safe), or barriers.
  EventHandle ScheduleOnLane(int lane, SimTime t, EventFn fn);

  /// Routes fn to run at absolute time t on `lane`: a direct push from
  /// the same lane or from control context, a stamped cross-lane post
  /// otherwise (delivered by the next ExchangeCrossLane, which is sound
  /// because cross-locality latency >= the plan's lookahead).
  void RouteToLane(int lane, SimTime t, EventFn fn);

  /// Per-lane dispatch counters, locality lanes first, control last.
  std::vector<uint64_t> LaneEventCounts() const;

  /// RAII override of the executing lane, so setup code can create a
  /// peer "on its lane" (the peer's timers then land on that lane). A
  /// no-op on serial simulators.
  class LaneScope {
   public:
    LaneScope(Simulator* sim, int lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    bool active_ = false;
    int prev_ = kControlLane;
  };

  // --- Sharded engine internals (driven by ShardedSimulator and engine
  // tests; not for peer code) -------------------------------------------------

  /// Dispatches `lane`'s events with time <= bound.
  void RunLaneUntil(int lane, SimTime bound);
  /// Dispatches control-lane events with time <= bound.
  void RunControlUntil(SimTime bound);
  bool LaneHasEventBefore(int lane, SimTime bound) const;
  /// Barrier: delivers every pending cross-lane post into its
  /// destination lane's queue, in (time, source lane, post seq) stamp
  /// order — the order (and thus queue tie-breaking) is independent of
  /// executor threading and shard grouping.
  void ExchangeCrossLane();
  /// Earliest pending event across control + all lanes (posts must be
  /// exchanged first); kMaxSimTime when drained.
  SimTime NextEventTime() const;
  /// Advances every clock to at least t (end-of-run clamp).
  void AdvanceAllClocksTo(SimTime t);

 private:
  /// Dispatches the control queue's events (every event when serial)
  /// with time <= bound.
  void RunLoop(SimTime bound);

  struct CrossLanePost {
    SimTime time;
    uint32_t source_lane;
    uint32_t dest_lane;
    uint64_t seq;  // per-source-lane, assigned at post time
    EventFn fn;
  };

  // Everything in a Lane is confined to the thread currently dispatching
  // that lane's events: the ShardedSimulator runs each lane on exactly
  // one worker per window, and the barrier's mutex handoff publishes the
  // state before any cross-lane read (merge, NextEventTime, folds).
  struct Lane {
    explicit Lane(uint64_t seed) : rng(seed) {}
    LANE_CONFINED EventQueue queue;
    LANE_CONFINED SimTime now = 0;
    LANE_CONFINED uint64_t events_processed = 0;
    LANE_CONFINED Rng rng;
    LANE_CONFINED uint64_t next_post_seq = 0;
    LANE_CONFINED std::vector<CrossLanePost> outbox;
  };

  struct ShardState {
    ShardPlan plan;
    std::vector<std::unique_ptr<Lane>> lanes;
    // Coordinator-only barrier scratch (ExchangeCrossLane).
    std::vector<CrossLanePost> exchange_scratch;
  };

  // Control lane (the only lane in serial mode).
  SimTime now_ = 0;
  EventQueue queue_;
  Rng rng_;
  uint64_t seed_;
  uint64_t events_processed_ = 0;
  std::unique_ptr<ShardState> shard_;
};

}  // namespace flower

#endif  // FLOWERCDN_SIM_SIMULATOR_H_
