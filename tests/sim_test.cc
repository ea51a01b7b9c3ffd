#include "sim/simulator.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// Counts global allocations so a test can assert that a periodic firing
// makes none. Only this test binary replaces the global operator new.
// Kept out of line so gcc does not pair an inlined new with the free()
// below and warn about a mismatch.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace flower {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, SameTimeFifoOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim(1);
  std::vector<SimTime> times;
  sim.Schedule(10, [&]() {
    times.push_back(sim.Now());
    sim.Schedule(5, [&]() { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, ZeroDelayRunsAfterCurrentEvent) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(10, [&]() {
    order.push_back(1);
    sim.Schedule(0, [&]() { order.push_back(2); });
    order.push_back(3);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(1);
  bool ran = false;
  EventHandle h = sim.Schedule(10, [&]() { ran = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim(1);
  int runs = 0;
  EventHandle h = sim.Schedule(10, [&]() { ++runs; });
  sim.Run();
  EXPECT_EQ(runs, 1);
  h.Cancel();  // no effect after firing
  EXPECT_FALSE(h.pending());
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim(1);
  std::vector<SimTime> fired;
  sim.Schedule(10, [&]() { fired.push_back(10); });
  sim.Schedule(20, [&]() { fired.push_back(20); });
  sim.Schedule(30, [&]() { fired.push_back(30); });
  sim.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(40);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim(1);
  int count = 0;
  sim.Schedule(5, [&]() { ++count; });
  sim.Schedule(15, [&]() { ++count; });
  sim.RunFor(10);
  EXPECT_EQ(count, 1);
  sim.RunFor(10);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator sim(1);
  std::vector<SimTime> fired;
  Simulator::PeriodicTimer h;
  sim.SchedulePeriodic(&h, 5, 10, [&]() { fired.push_back(sim.Now()); });
  EXPECT_TRUE(h.active());
  sim.RunUntil(40);
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 15, 25, 35}));
  h.Cancel();
  EXPECT_FALSE(h.active());
  sim.RunUntil(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, PeriodicCancelFromInsideCallback) {
  Simulator sim(1);
  int count = 0;
  Simulator::PeriodicTimer h;
  sim.SchedulePeriodic(&h, 1, 1, [&]() {
    if (++count == 3) h.Cancel();
  });
  sim.RunUntil(100);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(h.active());
  // The firing event was already dispatched: nothing was cancelled.
  EXPECT_EQ(sim.events_cancelled(), 0u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

// --- PeriodicTimer ------------------------------------------------------------

/// A callable the size of the protocol timers' `[this]` captures.
struct OwnerTick {
  int* owner;
  void operator()() { ++*owner; }
};

/// The sampler's and churn's captures: `this` plus a window or a lane.
struct OwnerAndValueTick {
  void* owner;
  SimTime value;
  void operator()() {}
};

static_assert(EventFn::FitsInline<Simulator::PeriodicTick<OwnerTick>>(),
              "a tick over an owner's this stays inline");
static_assert(
    EventFn::FitsInline<Simulator::PeriodicTick<OwnerAndValueTick>>(),
    "a tick over this plus one value stays inline");
static_assert(sizeof(Simulator::PeriodicTimer) == 24,
              "a timer is a handle plus a period");

TEST(PeriodicTimerTest, DestructionCancels) {
  Simulator sim(1);
  int fired = 0;
  auto owner = std::make_unique<Simulator::PeriodicTimer>();
  sim.SchedulePeriodic(owner.get(), 2, 2, OwnerTick{&fired});
  sim.RunUntil(5);
  EXPECT_EQ(fired, 2);
  owner.reset();  // the pending tick at t=6 dies with its timer
  EXPECT_EQ(sim.events_cancelled(), 1u);
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTimerTest, RestartFromInsideCallbackEndsTheOldChain) {
  Simulator sim(1);
  std::vector<SimTime> fired;
  Simulator::PeriodicTimer h;
  sim.SchedulePeriodic(&h, 1, 1, [&]() {
    fired.push_back(sim.Now());
    if (fired.size() == 2) {
      sim.SchedulePeriodic(&h, 10, 10, [&]() { fired.push_back(sim.Now()); });
    }
  });
  sim.RunUntil(35);
  EXPECT_EQ(fired, (std::vector<SimTime>{1, 2, 12, 22, 32}));
}

TEST(PeriodicTimerTest, FixedScheduleMatchesRecordedCounts) {
  // Four timers, one-shot events scheduled from a tick, a cancel from
  // inside a callback (b), from an event (c), by destruction (d) and
  // after the run (a). The fire log and both engine counters were
  // recorded from the shared-state timers this class replaced; sequence
  // numbers, and so same-time order, must not move.
  Simulator sim(1);
  std::string log;
  auto note = [&](char id) {
    log += id;
    log += std::to_string(sim.Now());
    log += ' ';
  };
  int b_count = 0;
  Simulator::PeriodicTimer a, b, c;
  auto d = std::make_unique<Simulator::PeriodicTimer>();
  sim.SchedulePeriodic(&a, 3, 7, [&]() { note('a'); });
  sim.SchedulePeriodic(&b, 0, 5, [&]() {
    note('b');
    if (++b_count == 4) b.Cancel();
  });
  sim.SchedulePeriodic(&c, 10, 4, [&]() {
    note('c');
    sim.Schedule(1, [&]() { note('x'); });
  });
  sim.SchedulePeriodic(d.get(), 2, 6, [&]() { note('d'); });
  sim.Schedule(30, [&]() {
    note('C');
    c.Cancel();
  });
  sim.Schedule(41, [&]() {
    note('D');
    d.reset();
  });
  sim.RunUntil(60);
  a.Cancel();
  EXPECT_EQ(log,
            "b0 d2 a3 b5 d8 c10 a10 b10 x11 d14 c14 b15 x15 a17 c18 x19 d20 "
            "c22 x23 a24 d26 c26 x27 C30 a31 d32 a38 d38 D41 a45 a52 a59 ");
  EXPECT_EQ(sim.events_processed(), 32u);
  EXPECT_EQ(sim.events_cancelled(), 3u);
}

TEST(PeriodicTimerTest, FiringDoesNotAllocate) {
  Simulator sim(1);
  int fired = 0;
  Simulator::PeriodicTimer timers[3];
  for (int i = 0; i < 3; ++i) {
    sim.SchedulePeriodic(&timers[i], i, 3, OwnerTick{&fired});
  }
  sim.RunUntil(30);  // warm: slab and heap at their steady size
  const int warm = fired;
  const long before = g_allocations.load();
  sim.RunUntil(3000);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(fired - warm, 3 * 990);
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim(1);
  for (int i = 0; i < 7; ++i) sim.Schedule(i, []() {});
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(EventQueueTest, CancelledEventIsSkipped) {
  EventQueue q;
  EventHandle a = q.Push(1, []() {});
  q.Push(2, []() {});
  a.Cancel();
  EXPECT_FALSE(q.empty());
  SimTime t = 0;
  EXPECT_TRUE(
      q.RunNextIfBefore(kMaxSimTime, [&t](SimTime when) { t = when; }));
  EXPECT_EQ(t, 2);  // the cancelled event was skipped
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace flower
