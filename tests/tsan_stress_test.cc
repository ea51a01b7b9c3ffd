// ThreadSanitizer stress for the sharded engine's concurrency contract
// (build-tsan preset; also a plain determinism test in normal builds).
//
// The engine's safety story is lane confinement: all lane state is
// touched only by the one worker dispatching that lane in the current
// window, and the window barrier's mutex handoff
// (sharded_simulator.cc) publishes it before any cross-lane read. TSan
// can't see "lane confinement" as a lock, so this test makes the
// discipline maximally visible to it: many lanes packed into fewer
// executor groups, uneven per-lane load (so group finish order varies),
// and a continuous storm of cross-lane posts into every lane's mailbox
// — hammering exactly the worker/coordinator edges (cv_start_/cv_done_
// generation handoff, outbox harvest, stamped merge) where a missing
// happens-before would be a data race.
//
// In plain builds the same runs double as an executor-equivalence
// check: the per-lane event fingerprints must be bit-identical across
// threaded reruns and against the serial executor.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/summary.h"
#include "sim/shard_plan.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace flower {
namespace {

constexpr int kLanes = 8;
constexpr int kGroups = 4;  // 2 lanes per worker: uneven windows interleave
constexpr SimTime kLookahead = 10;
constexpr SimTime kHorizon = 2000;

ShardPlan StormPlan() {
  ShardPlan plan;
  plan.num_lanes = kLanes;
  plan.node_lane.resize(kLanes);
  plan.lane_group.resize(kLanes);
  for (int l = 0; l < kLanes; ++l) {
    plan.node_lane[static_cast<size_t>(l)] = static_cast<uint32_t>(l);
    plan.lane_group[static_cast<size_t>(l)] =
        static_cast<uint32_t>(l % kGroups);
  }
  plan.lookahead = kLookahead;
  plan.num_groups = kGroups;
  return plan;
}

/// Per-lane FNV-1a fold of every (now, tag) this lane dispatched. Lane
/// entries are written only by the lane's own events (lane-confined);
/// the final fold runs after the coordinator joins the workers.
struct LaneTrace {
  uint64_t hash = 1469598103934665603ull;
  uint64_t events = 0;

  void Absorb(SimTime now, uint64_t tag) {
    ++events;
    for (uint64_t v : {static_cast<uint64_t>(now), tag}) {
      hash ^= v;
      hash *= 1099511628211ull;
    }
  }
};

struct Storm {
  Simulator sim;
  std::vector<LaneTrace> traces;

  explicit Storm(uint64_t seed) : sim(seed), traces(kLanes) {}

  /// Self-rescheduling lane tick: record, post to two other lanes'
  /// mailboxes at the earliest legal cross-lane distance, reschedule.
  void Tick(int lane, uint64_t round) {
    traces[static_cast<size_t>(lane)].Absorb(sim.Now(), round);
    for (int hop : {1, 3}) {
      const int dest = (lane + hop) % kLanes;
      if (dest == lane) continue;
      sim.RouteToLane(dest, sim.Now() + kLookahead,
                      [this, dest, round]() {
                        traces[static_cast<size_t>(dest)].Absorb(
                            sim.Now(), 1000 + round);
                      });
    }
    // Uneven steps per lane: executor groups finish their windows in
    // different orders, stressing the barrier's generation handoff.
    const SimTime step = 7 + lane;
    if (sim.Now() + step <= kHorizon) {
      sim.Schedule(step, [this, lane, round]() { Tick(lane, round + 1); });
    }
  }

  std::string Run(ShardedSimulator::Executor executor) {
    sim.EnableSharding(StormPlan());
    for (int lane = 0; lane < kLanes; ++lane) {
      sim.ScheduleOnLane(lane, 1 + lane, [this, lane]() { Tick(lane, 0); });
    }
    ShardedSimulator coordinator(&sim, executor);
    coordinator.RunUntil(kHorizon + 2 * kLookahead);

    std::string fingerprint;
    for (const LaneTrace& t : traces) {
      fingerprint += std::to_string(t.hash) + ":" +
                     std::to_string(t.events) + "/";
    }
    return fingerprint;
  }
};

TEST(TsanStressTest, CrossLaneMailboxStormDeterministicUnderThreads) {
  Storm threads_a(42);
  Storm threads_b(42);
  Storm serial(42);

  const std::string fp_threads_a =
      threads_a.Run(ShardedSimulator::Executor::kThreads);
  const std::string fp_threads_b =
      threads_b.Run(ShardedSimulator::Executor::kThreads);
  const std::string fp_serial =
      serial.Run(ShardedSimulator::Executor::kSerial);

  // Every lane dispatched work (the storm actually reached them all).
  for (const LaneTrace& t : threads_a.traces) {
    EXPECT_GT(t.events, 0u);
  }
  EXPECT_EQ(fp_threads_a, fp_threads_b)
      << "threaded executor is not deterministic across reruns";
  EXPECT_EQ(fp_threads_a, fp_serial)
      << "threaded executor diverges from the serial schedule";
}

/// Runs the storm with many tiny RunUntil calls: every call re-enters
/// the dispatch loop and crosses extra start/finish barriers per unit
/// of virtual time, maximizing generation-counter churn relative to
/// real work.
std::string RunChopped(ShardedSimulator::Executor executor) {
  Storm storm(7);
  storm.sim.EnableSharding(StormPlan());
  for (int lane = 0; lane < kLanes; ++lane) {
    storm.sim.ScheduleOnLane(lane, 1 + lane,
                             [&storm, lane]() { storm.Tick(lane, 0); });
  }
  ShardedSimulator coordinator(&storm.sim, executor);
  for (SimTime t = kLookahead; t <= kHorizon + 2 * kLookahead;
       t += kLookahead) {
    coordinator.RunUntil(t);
  }
  uint64_t total = 0;
  std::string fingerprint;
  for (const LaneTrace& t : storm.traces) {
    total += t.events;
    fingerprint += std::to_string(t.hash) + ":" +
                   std::to_string(t.events) + "/";
  }
  EXPECT_GT(total, 0u);
  return fingerprint;
}

TEST(TsanStressTest, RepeatedShortWindowsChurnTheBarrier) {
  // The stop pattern (and with it the barrier cut points) is part of
  // the deterministic schedule, so the comparison holds the call
  // pattern fixed and varies only the executor — that is the engine's
  // equivalence contract.
  const std::string fp_threads = RunChopped(
      ShardedSimulator::Executor::kThreads);
  const std::string fp_serial = RunChopped(
      ShardedSimulator::Executor::kSerial);
  EXPECT_EQ(fp_threads, fp_serial)
      << "threaded executor diverges under barrier-heavy stop patterns";
}

/// Directory summaries crossing localities, in miniature. Every lane
/// builds a summary per tick (in its worker thread's build scratch) and
/// posts handles to it into two other lanes' mailboxes, where each displaces an older handle (sometimes the
/// last one, so the summary is freed on the receiving lane). Every tick
/// also copies and drops handles to summaries all lanes share. Reference
/// counts therefore move on several threads at once: a count that is not
/// atomic is a data race here.
struct SummaryExchange {
  static constexpr size_t kSlots = 4;

  Simulator sim;
  std::vector<SummaryRef> shared;  // read-only, on every lane
  std::vector<std::vector<SummaryRef>> held;  // lane-confined slots
  std::vector<LaneTrace> traces;

  explicit SummaryExchange(uint64_t seed)
      : sim(seed),
        held(kLanes, std::vector<SummaryRef>(kSlots)),
        traces(kLanes) {
    for (uint64_t i = 0; i < 3; ++i) {
      shared.push_back(ContentSummary::Build(64, 8, 3, [i](BloomFilter& f) {
        for (uint64_t k = 0; k < 16; ++k) f.Add(i * 100 + k);
      }));
    }
  }

  void Keep(int lane, uint64_t round, SummaryRef summary) {
    std::vector<SummaryRef>& slots = held[static_cast<size_t>(lane)];
    slots[round % kSlots] = std::move(summary);
    uint64_t hits = 0;
    for (const SummaryRef& s : slots) hits += s && s->MaybeContains(round);
    traces[static_cast<size_t>(lane)].Absorb(sim.Now(), 1000 + hits);
  }

  void Tick(int lane, uint64_t round) {
    const SummaryRef built =
        ContentSummary::Build(64, 8, 3, [round](BloomFilter& f) {
          for (uint64_t k = 0; k < 8; ++k) f.Add(round + k * kLanes);
        });
    const std::vector<SummaryRef> copies = shared;
    uint64_t hits = 0;
    for (const SummaryRef& s : copies) hits += s->MaybeContains(round);
    for (int hop : {1, 3}) {
      const int dest = (lane + hop) % kLanes;
      sim.RouteToLane(dest, sim.Now() + kLookahead,
                      [this, dest, round, built,
                       hot = shared[round % shared.size()]]() {
                        Keep(dest, round + hot->MaybeContains(round), built);
                      });
    }
    Keep(lane, round + hits, built);
    const SimTime step = 5 + lane;
    if (sim.Now() + step <= kHorizon) {
      sim.Schedule(step, [this, lane, round]() { Tick(lane, round + 1); });
    }
  }

  std::string Run(ShardedSimulator::Executor executor) {
    sim.EnableSharding(StormPlan());
    for (int lane = 0; lane < kLanes; ++lane) {
      sim.ScheduleOnLane(lane, 1 + lane, [this, lane]() { Tick(lane, 0); });
    }
    ShardedSimulator coordinator(&sim, executor);
    coordinator.RunUntil(kHorizon + 2 * kLookahead);
    std::string fingerprint;
    for (const LaneTrace& t : traces) {
      fingerprint += std::to_string(t.hash) + ":" +
                     std::to_string(t.events) + "/";
    }
    return fingerprint;
  }
};

TEST(TsanStressTest, LanesCopyAndDropSharedSummaryHandles) {
  SummaryExchange threads(3);
  SummaryExchange serial(3);
  const std::string fp_threads =
      threads.Run(ShardedSimulator::Executor::kThreads);
  const std::string fp_serial =
      serial.Run(ShardedSimulator::Executor::kSerial);
  EXPECT_EQ(fp_threads, fp_serial);
  for (const LaneTrace& t : threads.traces) EXPECT_GT(t.events, 0u);
  // Every handle the lanes copied or carried in mailboxes was dropped.
  for (const SummaryRef& s : threads.shared) EXPECT_EQ(s.use_count(), 1u);
  // A lane's summary lives in its own slot and up to two receivers'.
  for (const auto& slots : threads.held) {
    for (const SummaryRef& s : slots) {
      ASSERT_TRUE(s);
      EXPECT_GE(s.use_count(), 1u);
      EXPECT_LE(s.use_count(), 3u);
    }
  }
}

}  // namespace
}  // namespace flower
