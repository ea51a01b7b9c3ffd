#include "sim/simulator.h"

#include <cassert>

namespace flower {

Simulator::Simulator(uint64_t seed) : rng_(seed), seed_(seed) {}

void Simulator::RunLoop(SimTime bound) {
  // The clock advances in the `before` hook, so callbacks observe their
  // own event time via Now(); the callback then runs in its pool slot
  // (no per-event move of the callable).
  const auto advance_clock = [this](SimTime event_time) {
    assert(event_time >= now_);
    now_ = event_time;
    ++events_processed_;
  };
  while (queue_.RunNextIfBefore(bound, advance_clock)) {
  }
}

void Simulator::Run() { RunLoop(kMaxSimTime); }

void Simulator::RunUntil(SimTime t) {
  assert(t >= now_);
  RunLoop(t);
  if (now_ < t) now_ = t;
}

}  // namespace flower
