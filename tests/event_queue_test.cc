// Tests for the pooled event queue (src/sim/event_queue.h): determinism
// against a reference model under interleaved push/cancel/pop (uniform
// times, and drifting hot spots with a far-future tail), (time, seq)
// tie-breaking across slot reuse, cancelled bursts and callback pushes,
// seq staleness of handles, the in-place dispatch path, EventFn
// inline/heap storage and footprint, sequence exhaustion, and ASan-clean
// teardown with pending periodic timers.
#include "sim/event_queue.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/simulator.h"

namespace flower {
namespace {

/// Runs the earliest live event through the dispatch path; returns its
/// time.
SimTime RunOne(EventQueue* q) {
  SimTime t = -1;
  EXPECT_TRUE(
      q->RunNextIfBefore(kMaxSimTime, [&t](SimTime when) { t = when; }));
  return t;
}

/// Runs every live event in (time, seq) order.
void Drain(EventQueue* q) {
  while (q->RunNextIfBefore(kMaxSimTime, [](SimTime) {})) {
  }
}

// --- Footprint ----------------------------------------------------------------

// The item, slot and handle sizes are pinned in event_queue.h itself.
static_assert(sizeof(EventFn) == EventFn::kInlineBytes + sizeof(void*),
              "EventFn is its inline buffer plus one ops pointer");

// --- EventFn ------------------------------------------------------------------

TEST(EventFnTest, SmallCapturesStayInline) {
  int hits = 0;
  int* p = &hits;
  auto small = [p]() { ++*p; };
  EXPECT_TRUE(EventFn::FitsInline<decltype(small)>());
  EventFn fn(small);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, LargeCapturesFallBackToHeap) {
  struct Big {
    char pad[EventFn::kInlineBytes + 1] = {0};
  };
  Big big;
  int hits = 0;
  int* p = &hits;
  auto large = [big, p]() {
    (void)big;
    ++*p;
  };
  EXPECT_FALSE(EventFn::FitsInline<decltype(large)>());
  EventFn fn(std::move(large));
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(EventFnTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventFn a([counter]() { ++*counter; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
}

TEST(EventFnTest, MoveOnlyCapturesWork) {
  int result = 0;
  EventFn fn([m = std::make_unique<int>(41), &result]() { result = *m + 1; });
  fn.InvokeAndReset();
  EXPECT_EQ(result, 42);
  EXPECT_FALSE(static_cast<bool>(fn)) << "InvokeAndReset empties the fn";
}

TEST(EventFnTest, ResetReleasesCaptures) {
  auto token = std::make_shared<int>(7);
  EventFn fn([token]() {});
  EXPECT_EQ(token.use_count(), 2);
  fn.reset();
  EXPECT_EQ(token.use_count(), 1);
}

// --- Handle staleness (seq/generation checks) ---------------------------------

TEST(EventQueueTest, StaleHandleCannotCancelSlotReuser) {
  EventQueue q;
  EventHandle a = q.Push(5, []() {});
  a.Cancel();  // frees the slot
  EXPECT_EQ(q.events_cancelled(), 1u);
  bool ran = false;
  EventHandle b = q.Push(1, [&ran]() { ran = true; });  // reuses the slot
  a.Cancel();  // stale seq: must not touch b's event
  EXPECT_TRUE(b.pending());
  EXPECT_EQ(q.events_cancelled(), 1u);
  EXPECT_EQ(RunOne(&q), 1);
  EXPECT_TRUE(ran);
  EXPECT_FALSE(b.pending()) << "fired events read as not pending";
  b.Cancel();  // after fire: no-op
  EXPECT_EQ(q.events_cancelled(), 1u);
}

TEST(EventQueueTest, HandleCopiesGoStaleTogether) {
  EventQueue q;
  EventHandle a = q.Push(5, []() {});
  EventHandle copy = a;
  a.Cancel();
  EXPECT_FALSE(copy.pending());
  copy.Cancel();  // idempotent through the copy
  EXPECT_EQ(q.events_cancelled(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelOwnHandleInsideCallbackIsNoop) {
  Simulator sim(1);
  int runs = 0;
  EventHandle h;
  h = sim.Schedule(10, [&]() {
    ++runs;
    h.Cancel();  // the event is already firing: must be a no-op
  });
  sim.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

// --- Tie-break ordering across pool reuse -------------------------------------

TEST(EventQueueTest, SameTimeFifoSurvivesSlotChurn) {
  EventQueue q;
  // Scramble the free list: slots are freed in a different order than
  // allocated, so later pushes reuse interior slots.
  std::vector<EventHandle> churn;
  for (int i = 0; i < 64; ++i) churn.push_back(q.Push(1, []() {}));
  for (int i = 0; i < 64; i += 2) churn[static_cast<size_t>(i)].Cancel();
  Drain(&q);

  // FIFO among equal times must follow push order, not slot order.
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.Push(7, [&order, i]() { order.push_back(i); });
  }
  Drain(&q);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, SameTimeBurstAmongSpreadEventsStaysFifo) {
  // A large burst at one time, pushed after events spread around it,
  // fires between its neighbours in push order.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    q.Push(static_cast<SimTime>(i * 1000),
           [&order, i]() { order.push_back(i); });
  }
  const SimTime kHot = 17500;
  for (int i = 0; i < 200; ++i) {
    const int id = 100 + i;
    q.Push(kHot, [&order, id]() { order.push_back(id); });
  }
  Drain(&q);
  std::vector<int> expected;
  for (int i = 0; i < 18; ++i) expected.push_back(i);        // 0..17000
  for (int i = 0; i < 200; ++i) expected.push_back(100 + i);  // the burst
  for (int i = 18; i < 32; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelledBurstSurvivorsFireInPushOrder) {
  // Cancel most of a same-time burst: the survivors fire in push order
  // and the cancellation counter stays exact.
  EventQueue q;
  for (int i = 0; i < 16; ++i) {
    q.Push(static_cast<SimTime>(i * 1000), []() {});
  }
  std::vector<EventHandle> burst;
  std::vector<int> order;
  for (int i = 0; i < 300; ++i) {
    burst.push_back(q.Push(9500, [&order, i]() { order.push_back(i); }));
  }
  for (int i = 0; i < 300; ++i) {
    if (i % 10 != 0) burst[static_cast<size_t>(i)].Cancel();
  }
  EXPECT_EQ(q.events_cancelled(), 270u);
  Drain(&q);
  ASSERT_EQ(order.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i * 10);
}

TEST(EventQueueTest, CallbackPushAtBusyTimeFiresAfterOlderEvents) {
  // A callback pushes an event at a time that already holds older
  // events: the new event has the highest seq there, so it fires last
  // among them.
  EventQueue q;
  std::vector<int> order;
  auto record = [&order](int id) {
    return [&order, id]() { order.push_back(id); };
  };
  q.Push(603, record(100));
  q.Push(603, record(101));
  q.Push(402, [&]() {
    order.push_back(200);
    q.Push(603, record(300));
  });
  q.Push(500, record(201));
  q.Push(803, record(2));
  Drain(&q);
  EXPECT_EQ(order, (std::vector<int>{200, 201, 100, 101, 300, 2}));
}

TEST(EventQueueTest, SameTimePushFromCallbackRunsThisRound) {
  // An event scheduled at the current dispatch time from inside a firing
  // callback runs before any later event.
  EventQueue q;
  std::vector<int> order;
  q.Push(100, [&]() {
    order.push_back(1);
    q.Push(100, [&order]() { order.push_back(2); });
  });
  q.Push(200, [&order]() { order.push_back(3); });
  SimTime t;
  while (q.RunNextIfBefore(kMaxSimTime, [&t](SimTime when) { t = when; })) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Reference-model stress ---------------------------------------------------

/// Drives the queue with `rounds` random push/cancel/pop ops and checks
/// every pop against an explicit (time, seq) reference model, then
/// drains the rest through the in-place dispatch path. `next_time(rng,
/// drift)` picks each push time; drift is the latest time popped so far.
template <typename NextTime>
void StressAgainstModel(uint64_t seed, int rounds, NextTime next_time) {
  struct ModelEvent {
    SimTime time;
    uint64_t seq;
    int id;
  };
  Rng rng(seed);
  EventQueue q;
  std::vector<ModelEvent> live;           // the reference model
  std::map<uint64_t, EventHandle> handles;  // seq -> handle
  std::vector<int> fired;
  uint64_t seq = 0;
  int next_id = 0;
  SimTime drift = 0;

  auto model_min = [&]() {
    return std::min_element(live.begin(), live.end(),
                            [](const ModelEvent& a, const ModelEvent& b) {
                              if (a.time != b.time) return a.time < b.time;
                              return a.seq < b.seq;
                            });
  };

  for (int round = 0; round < rounds; ++round) {
    const uint64_t op = rng.Index(4);
    if (op <= 1) {  // push (twice as likely, keeps the queue populated)
      const SimTime time = next_time(rng, drift);
      const int id = next_id++;
      handles[seq] = q.Push(time, [&fired, id]() { fired.push_back(id); });
      EXPECT_TRUE(handles[seq].pending());
      live.push_back(ModelEvent{time, seq, id});
      ++seq;
    } else if (op == 2) {  // cancel a random live event
      if (live.empty()) continue;
      const size_t pick = rng.Index(live.size());
      handles[live[pick].seq].Cancel();
      EXPECT_FALSE(handles[live[pick].seq].pending());
      handles.erase(live[pick].seq);
      live.erase(live.begin() + static_cast<long>(pick));
    } else {  // pop: must match the model's (time, seq) minimum
      if (q.empty()) {
        EXPECT_TRUE(live.empty());
        continue;
      }
      auto expected = model_min();
      EXPECT_EQ(q.NextTime(), expected->time);
      const SimTime t = RunOne(&q);
      EXPECT_EQ(t, expected->time);
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(fired.back(), expected->id);
      drift = std::max(drift, t);
      handles.erase(expected->seq);
      live.erase(expected);
    }
    ASSERT_EQ(q.empty(), live.empty());
    if (round % 1024 == 0) {  // every model event is still pending
      for (const ModelEvent& ev : live) {
        ASSERT_TRUE(handles[ev.seq].pending()) << "round " << round;
      }
    }
  }

  // Drain the remainder through the in-place dispatch path.
  while (!live.empty()) {
    auto expected = model_min();
    const int expected_id = expected->id;
    ASSERT_TRUE(q.RunNextIfBefore(kMaxSimTime, [&](SimTime when) {
      EXPECT_EQ(when, expected->time);
    }));
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired.back(), expected_id);
    live.erase(expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, InterleavedPushCancelPopMatchesModel) {
  StressAgainstModel(20260731, 30000, [](Rng& rng, SimTime) {
    return static_cast<SimTime>(rng.Index(500));
  });
}

TEST(EventQueueStress, DriftingHotSpotsMatchModel) {
  // The shape of a running simulation: pushes never precede the last
  // pop, most land in the near future, many pile onto a few exact times
  // (same-time FIFO at depth), and some go far ahead.
  StressAgainstModel(20260808, 60000, [](Rng& rng, SimTime drift) {
    const uint64_t shape = rng.Index(10);
    if (shape < 4) return drift + static_cast<SimTime>(rng.Index(200));
    if (shape < 7) return drift + static_cast<SimTime>(100 * rng.Index(4));
    return drift + static_cast<SimTime>(rng.Index(500000));
  });
}

// --- In-place dispatch path ---------------------------------------------------

TEST(EventQueueTest, RunNextIfBeforeRespectsBound) {
  EventQueue q;
  std::vector<SimTime> ran;
  q.Push(10, [&ran]() { ran.push_back(10); });
  q.Push(20, [&ran]() { ran.push_back(20); });
  q.Push(30, [&ran]() { ran.push_back(30); });
  SimTime t;
  while (q.RunNextIfBefore(20, [&t](SimTime when) { t = when; })) {
  }
  EXPECT_EQ(ran, (std::vector<SimTime>{10, 20}));
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.NextTime(), 30);
  while (q.RunNextIfBefore(kMaxSimTime, [&t](SimTime when) { t = when; })) {
  }
  EXPECT_EQ(ran.size(), 3u);
}

TEST(EventQueueTest, CallbackMayPushDuringInPlaceDispatch) {
  // Pushing from inside a callback must be safe even when it grows the
  // slot pool (slabs are stable) and may reuse freed slots.
  EventQueue q;
  int depth = 0;
  std::vector<int> order;
  std::function<void(int)> recurse = [&](int d) {
    order.push_back(d);
    if (d < 300) {  // deep enough to force several new slabs
      q.Push(static_cast<SimTime>(d + 1), [&recurse, d]() { recurse(d + 1); });
      // A sibling that gets cancelled right away churns the free list
      // while the current callback still executes in its slot.
      EventHandle sibling = q.Push(static_cast<SimTime>(d + 2), []() {});
      sibling.Cancel();
    }
    ++depth;
  };
  q.Push(0, [&recurse]() { recurse(0); });
  SimTime t;
  while (q.RunNextIfBefore(kMaxSimTime, [&t](SimTime when) { t = when; })) {
  }
  EXPECT_EQ(depth, 301);
  for (int i = 0; i <= 300; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// --- Teardown with pending self-referential timers ----------------------------

TEST(EventQueueTeardown, PendingSelfReferentialTimersDoNotLeak) {
  // Periodic ticks point at their timers and own their captures; events
  // capture handles to other pending events and owned heap payloads.
  // Timers die before their simulator (their owners' rule): that must
  // release each pending tick's captures, and destroying the simulator
  // with the rest pending must release everything else (the ASan job
  // fails on leaks).
  auto sim = std::make_unique<Simulator>(1);
  auto payload = std::make_shared<int>(0);
  auto timers = std::make_unique<std::deque<Simulator::PeriodicTimer>>();
  for (int i = 0; i < 50; ++i) {
    sim->SchedulePeriodic(&timers->emplace_back(), 10, 10,
                          [payload]() { (void)*payload; });
  }
  EventHandle target = sim->Schedule(500, []() {});
  sim->Schedule(600, [target]() mutable { target.Cancel(); });
  sim->Schedule(700, [owned = std::make_unique<int>(7)]() { (void)*owned; });
  sim->RunUntil(45);  // a few periodic rounds fire, everything rearms
  EXPECT_GT(sim->events_processed(), 0u);
  EXPECT_EQ(payload.use_count(), 51);
  timers.reset();  // each pending tick is cancelled with its timer
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(sim->events_cancelled(), 50u);
  sim.reset();  // pending handles + owned payloads torn down here
  SUCCEED();
}

TEST(EventQueueDeathTest, SequenceExhaustionAborts) {
  // Seq is 32 bits and never reused: the last one is handed out, the next
  // push aborts with a message in every build type.
  EXPECT_DEATH(
      {
        EventQueue q;
        q.set_next_seq_for_testing(0xfffffffeu);
        EventHandle last = q.Push(1, []() {});
        if (!last.pending()) std::abort();
        q.Push(2, []() {});
      },
      "event sequence numbers used up");
}

TEST(EventQueueTest, LastSequenceNumberStillOrdersFifo) {
  EventQueue q;
  q.set_next_seq_for_testing(0xfffffffdu);
  std::vector<int> order;
  q.Push(5, [&order]() { order.push_back(1); });
  q.Push(5, [&order]() { order.push_back(2); });
  SimTime t = 0;
  while (q.RunNextIfBefore(10, [&t](SimTime at) { t = at; })) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(t, 5);
}

TEST(EventQueueTeardown, QueueDiesWithPendingMoveOnlyCaptures) {
  auto token = std::make_shared<int>(1);
  {
    EventQueue q;
    q.Push(10, [token]() {});
    q.Push(20, [t2 = token, big = std::make_unique<int>(2)]() { (void)*big; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1) << "teardown must release captures";
}

}  // namespace
}  // namespace flower
