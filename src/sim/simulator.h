// Discrete-event simulation kernel: a virtual clock plus an event queue.
//
// This is the PeerSim substitute (see DESIGN.md): deterministic given a
// seed, with a per-simulation master Rng from which all component
// generators are forked. Events run one at a time in (time, push order),
// so dispatch order — and therefore every metric and RNG draw — is a pure
// function of (config, seed).
#ifndef FLOWERCDN_SIM_SIMULATOR_H_
#define FLOWERCDN_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace flower {

class Simulator {
 public:
  explicit Simulator(uint64_t seed);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules fn to run after the given delay (>= 0). Accepts any
  /// callable (EventFn stores it inline when it fits, see event_fn.h);
  /// move-only closures are fine.
  EventHandle Schedule(SimTime delay, EventFn fn) {
    assert(delay >= 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules fn at an absolute time (>= Now()).
  EventHandle ScheduleAt(SimTime t, EventFn fn) {
    assert(t >= now_);
    return queue_.Push(t, std::move(fn));
  }

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

  /// Starts `timer` (cancelling any run it had): fn fires every `period`,
  /// first after `initial_delay`.
  template <typename F>
  void SchedulePeriodic(PeriodicTimer* timer, SimTime initial_delay,
                        SimTime period, F fn) {
    assert(period > 0);
    timer->Cancel();
    timer->period_ = period;
    timer->next_ = Schedule(
        initial_delay, PeriodicTick<F>{timer, this, std::move(fn)});
  }

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with time <= t, then sets Now() to t (if queue drained).
  void RunUntil(SimTime t);

  /// Runs for a relative duration from the current time.
  void RunFor(SimTime duration) { RunUntil(Now() + duration); }

  /// Master generator for this simulation. Fork per component (setup
  /// path).
  Rng* rng() { return &rng_; }

  /// The master seed (for deriving independent streams via Mix64, the
  /// churn/fault-injector pattern — never reseed from rng()).
  uint64_t seed() const { return seed_; }

  uint64_t events_processed() const { return events_processed_; }
  uint64_t events_cancelled() const { return queue_.events_cancelled(); }

 private:
  /// Dispatches the queue's events with time <= bound.
  void RunLoop(SimTime bound);

  SimTime now_ = 0;
  EventQueue queue_;
  Rng rng_;
  uint64_t seed_;
  uint64_t events_processed_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_SIM_SIMULATOR_H_
