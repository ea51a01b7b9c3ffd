// ShardedSimulator: conservative time-windowed coordinator for a
// lane-partitioned Simulator (see simulator.h / shard_plan.h).
//
// Execution proceeds in windows of at most `plan.lookahead` virtual
// milliseconds — the floor of every cross-locality link latency. Each
// window runs three phases:
//
//   1. control phase  — the control lane (workload injection, observers,
//      samplers) runs its events for the window on the coordinator
//      thread. It may inject events directly into still-idle lanes at
//      times inside the window.
//   2. lane phase     — every locality lane runs its events for the
//      window. Lanes only touch lane-local state (their queue, their
//      peers, their metrics/traffic collectors), so the serial executor
//      iterates them in lane order and the threaded executor runs shard
//      groups concurrently — with byte-identical results, because no
//      observable ordering crosses lanes inside a window.
//   3. barrier        — cross-lane messages posted during the window are
//      merged into their destination queues in (time, source lane, seq)
//      stamp order. The lookahead guarantees every such message targets
//      a later window, so no lane ever sees a message "from the past".
#ifndef FLOWERCDN_SIM_SHARDED_SIMULATOR_H_
#define FLOWERCDN_SIM_SHARDED_SIMULATOR_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace flower {

class ShardedSimulator {
 public:
  enum class Executor {
    kSerial,   // lanes run on the coordinator thread, in lane order
    kThreads,  // shard groups run on a persistent worker pool
  };

  /// The simulator must already be sharded (Simulator::EnableSharding).
  ShardedSimulator(Simulator* sim, Executor executor);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Runs all lanes up to and including time t, then advances every
  /// clock to t (the sharded counterpart of Simulator::RunUntil).
  void RunUntil(SimTime t);

  Executor executor() const { return executor_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

 private:
  /// Lanes of one executor group, in ascending lane order. An explicit
  /// list, not a [min, max) range: ShardPlan::lane_group may pack lanes
  /// into groups in any pattern, and compressing a non-contiguous group
  /// to its bounding range would hand the same lane to two workers at
  /// once (a data race found by tsan_stress_test's round-robin plan).
  using LaneList = std::vector<int>;

  /// One window: control phase, lane phase, barrier. `bound` is the last
  /// event time included in the window.
  void RunWindow(SimTime bound);
  void RunLanes(const LaneList& lanes, SimTime bound);
  void WorkerLoop(size_t group_index);
  void DispatchGroups(SimTime bound);

  Simulator* sim_;
  Executor executor_;
  std::vector<LaneList> groups_;

  // Worker pool (kThreads with >= 2 groups only). Coordinator publishes
  // {window_bound_, generation_} under mu_; workers run their group and
  // decrement pending_. The mutex handoff is the happens-before edge for
  // all lane state between phases. The GUARDED_BY contracts are enforced
  // by clang -Wthread-safety (CI job `thread-safety`).
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  int pending_ GUARDED_BY(mu_) = 0;
  SimTime window_bound_ GUARDED_BY(mu_) = 0;
  bool quit_ GUARDED_BY(mu_) = false;
};

}  // namespace flower

#endif  // FLOWERCDN_SIM_SHARDED_SIMULATOR_H_
