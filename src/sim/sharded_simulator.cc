#include "sim/sharded_simulator.h"

#include <algorithm>
#include <cassert>

namespace flower {

ShardedSimulator::ShardedSimulator(Simulator* sim, Executor executor)
    : sim_(sim), executor_(executor) {
  assert(sim != nullptr && sim->sharded());
  const ShardPlan& plan = sim->shard_plan();
  groups_.resize(static_cast<size_t>(plan.num_groups));
  // Ascending lane order within each group (l is ascending here), so
  // the serial executor and a single-group dispatch both preserve the
  // canonical lane iteration order.
  for (int l = 0; l < plan.num_lanes; ++l) {
    groups_[static_cast<size_t>(plan.lane_group[l])].push_back(l);
  }
  if (executor_ == Executor::kThreads && groups_.size() >= 2) {
    workers_.reserve(groups_.size() - 1);
    for (size_t g = 1; g < groups_.size(); ++g) {
      workers_.emplace_back([this, g]() { WorkerLoop(g); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    {
      MutexLock lock(&mu_);
      quit_ = true;
    }
    cv_start_.NotifyAll();
    for (std::thread& w : workers_) w.join();
  }
}

void ShardedSimulator::RunLanes(const LaneList& lanes, SimTime bound) {
  for (int lane : lanes) {
    if (sim_->LaneHasEventBefore(lane, bound)) {
      sim_->RunLaneUntil(lane, bound);
    }
  }
}

void ShardedSimulator::WorkerLoop(size_t group_index) {
  uint64_t seen_generation = 0;
  for (;;) {
    SimTime bound;
    {
      MutexLock lock(&mu_);
      cv_start_.Wait(&mu_, [this, seen_generation]() REQUIRES(mu_) {
        return quit_ || generation_ != seen_generation;
      });
      if (quit_) return;
      seen_generation = generation_;
      bound = window_bound_;
    }
    RunLanes(groups_[group_index], bound);
    {
      MutexLock lock(&mu_);
      if (--pending_ == 0) cv_done_.NotifyOne();
    }
  }
}

void ShardedSimulator::DispatchGroups(SimTime bound) {
  // Skip the pool handoff when at most one group has work this window —
  // the common case with sparse event populations.
  int busy = 0;
  const LaneList* only = nullptr;
  for (const LaneList& g : groups_) {
    for (int lane : g) {
      if (sim_->LaneHasEventBefore(lane, bound)) {
        ++busy;
        only = &g;
        break;
      }
    }
    if (busy > 1) break;
  }
  if (busy == 0) return;
  if (busy == 1 || workers_.empty()) {
    if (busy == 1) {
      RunLanes(*only, bound);
    } else {
      for (const LaneList& g : groups_) RunLanes(g, bound);
    }
    return;
  }
  {
    MutexLock lock(&mu_);
    window_bound_ = bound;
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.NotifyAll();
  RunLanes(groups_[0], bound);
  MutexLock lock(&mu_);
  cv_done_.Wait(&mu_, [this]() REQUIRES(mu_) { return pending_ == 0; });
}

void ShardedSimulator::RunWindow(SimTime bound) {
  sim_->RunControlUntil(bound);
  if (executor_ == Executor::kThreads) {
    DispatchGroups(bound);
  } else {
    for (const LaneList& g : groups_) RunLanes(g, bound);
  }
  sim_->ExchangeCrossLane();
}

void ShardedSimulator::RunUntil(SimTime t) {
  const SimTime lookahead = sim_->shard_plan().lookahead;
  for (;;) {
    const SimTime next = sim_->NextEventTime();
    if (next > t) break;
    // Window [next, bound]; width <= lookahead keeps cross-lane posts
    // strictly beyond the bound.
    const SimTime bound =
        (t - next >= lookahead) ? next + lookahead - 1 : t;
    RunWindow(bound);
  }
  sim_->AdvanceAllClocksTo(t);
}

}  // namespace flower
