#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace flower {

namespace {

/// Lane executing on this thread. Thread-local rather than a Simulator
/// member so the parallel shard executor needs no per-event
/// synchronization to know "who am I"; at most one simulator dispatches
/// on a given thread at a time, and every dispatch site saves/restores.
thread_local int tls_current_lane = Simulator::kControlLane;

/// Seed-stream tags for per-lane generators. Lane streams are *derived*
/// from the master seed (not drawn from the master generator), so
/// enabling sharding leaves the master draw sequence — and with it the
/// topology, deployment and catalog — identical to a serial run.
constexpr uint64_t kLaneRngTag = 0x9e3779b97f4a7c15ull;

}  // namespace

int CurrentSimLane() { return tls_current_lane; }

Simulator::Simulator(uint64_t seed) : rng_(seed), seed_(seed) {}

EventHandle Simulator::Schedule(SimTime delay, EventFn fn) {
  assert(delay >= 0);
  return ScheduleAt(Now() + delay, std::move(fn));
}

EventHandle Simulator::ScheduleAt(SimTime t, EventFn fn) {
  if (shard_ != nullptr) {
    int lane = tls_current_lane;
    if (lane >= 0) {
      Lane& ln = *shard_->lanes[static_cast<size_t>(lane)];
      assert(t >= ln.now);
      return ln.queue.Push(t, std::move(fn));
    }
  }
  assert(t >= now_);
  return queue_.Push(t, std::move(fn));
}

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

void Simulator::Run() {
  assert(shard_ == nullptr && "sharded runs go through ShardedSimulator");
  RunLoop(kMaxSimTime);
}

void Simulator::RunUntil(SimTime t) {
  assert(shard_ == nullptr && "sharded runs go through ShardedSimulator");
  assert(t >= now_);
  RunLoop(t);
  if (now_ < t) now_ = t;
}

uint64_t Simulator::events_processed() const {
  uint64_t total = events_processed_;
  if (shard_ != nullptr) {
    for (const auto& lane : shard_->lanes) total += lane->events_processed;
  }
  return total;
}

uint64_t Simulator::events_cancelled() const {
  uint64_t total = queue_.events_cancelled();
  if (shard_ != nullptr) {
    for (const auto& lane : shard_->lanes) {
      total += lane->queue.events_cancelled();
    }
  }
  return total;
}

// --- Sharded mode -------------------------------------------------------------

void Simulator::EnableSharding(ShardPlan plan) {
  assert(shard_ == nullptr && "sharding already enabled");
  assert(plan.num_lanes >= 1);
  assert(plan.lookahead >= 1);
  assert(queue_.empty() && now_ == 0 &&
         "enable sharding before scheduling events");
  shard_ = std::make_unique<ShardState>();
  shard_->plan = std::move(plan);
  shard_->lanes.reserve(static_cast<size_t>(shard_->plan.num_lanes));
  for (int l = 0; l < shard_->plan.num_lanes; ++l) {
    shard_->lanes.push_back(std::make_unique<Lane>(
        Mix64(seed_ ^ (kLaneRngTag + static_cast<uint64_t>(l)))));
  }
}

EventHandle Simulator::ScheduleOnLane(int lane, SimTime t, EventFn fn) {
  assert(shard_ != nullptr);
  Lane& ln = *shard_->lanes[static_cast<size_t>(lane)];
  assert(t >= ln.now);
  return ln.queue.Push(t, std::move(fn));
}

void Simulator::RouteToLane(int lane, SimTime t, EventFn fn) {
  assert(shard_ != nullptr);
  assert(lane >= 0 && lane < shard_->plan.num_lanes);
  const int cur = tls_current_lane;
  if (cur == lane || cur == kControlLane) {
    // Same lane, or control/barrier context while lanes are idle: the
    // destination queue is safe to touch directly.
    ScheduleOnLane(lane, t, std::move(fn));
    return;
  }
  // Cross-lane while lanes run: append to the executing lane's outbox
  // (lane-local, no synchronization); ExchangeCrossLane delivers it at
  // the next barrier. The conservative lookahead guarantees t lies
  // beyond the current window.
  Lane& src = *shard_->lanes[static_cast<size_t>(cur)];
  CrossLanePost post;
  post.time = t;
  post.source_lane = static_cast<uint32_t>(cur);
  post.dest_lane = static_cast<uint32_t>(lane);
  post.seq = src.next_post_seq++;
  post.fn = std::move(fn);
  src.outbox.push_back(std::move(post));
}

std::vector<uint64_t> Simulator::LaneEventCounts() const {
  std::vector<uint64_t> counts;
  if (shard_ != nullptr) {
    counts.reserve(shard_->lanes.size() + 1);
    for (const auto& lane : shard_->lanes) {
      counts.push_back(lane->events_processed);
    }
  }
  counts.push_back(events_processed_);
  return counts;
}

Simulator::LaneScope::LaneScope(Simulator* sim, int lane) {
  if (sim == nullptr || !sim->sharded()) return;
  assert(lane >= 0 && lane < sim->shard_->plan.num_lanes);
  active_ = true;
  prev_ = tls_current_lane;
  tls_current_lane = lane;
}

Simulator::LaneScope::~LaneScope() {
  if (active_) tls_current_lane = prev_;
}

void Simulator::RunLaneUntil(int lane, SimTime bound) {
  assert(shard_ != nullptr);
  Lane& ln = *shard_->lanes[static_cast<size_t>(lane)];
  const int prev = tls_current_lane;
  tls_current_lane = lane;
  const auto advance_clock = [&ln](SimTime event_time) {
    assert(event_time >= ln.now);
    ln.now = event_time;
    ++ln.events_processed;
  };
  while (ln.queue.RunNextIfBefore(bound, advance_clock)) {
  }
  tls_current_lane = prev;
}

void Simulator::RunControlUntil(SimTime bound) {
  assert(shard_ != nullptr);
  RunLoop(bound);
}

bool Simulator::LaneHasEventBefore(int lane, SimTime bound) const {
  const EventQueue& q = shard_->lanes[static_cast<size_t>(lane)]->queue;
  return !q.empty() && q.NextTime() <= bound;
}

void Simulator::ExchangeCrossLane() {
  assert(shard_ != nullptr);
  std::vector<CrossLanePost>& batch = shard_->exchange_scratch;
  batch.clear();
  for (auto& lane : shard_->lanes) {
    for (CrossLanePost& post : lane->outbox) {
      batch.push_back(std::move(post));
    }
    lane->outbox.clear();
  }
  if (batch.empty()) return;
  // Deliver in stamp order: (time, source lane, per-source seq) is a
  // total order that depends only on the locality partition, so the
  // destination queues' FIFO tie-breaking — and with it the entire
  // downstream dispatch order — is invariant to threading and grouping.
  std::sort(batch.begin(), batch.end(),
            [](const CrossLanePost& a, const CrossLanePost& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.source_lane != b.source_lane) {
                return a.source_lane < b.source_lane;
              }
              return a.seq < b.seq;
            });
  for (CrossLanePost& post : batch) {
    Lane& dest = *shard_->lanes[post.dest_lane];
    assert(post.time >= dest.now);
    dest.queue.Push(post.time, std::move(post.fn));
  }
  batch.clear();
}

SimTime Simulator::NextEventTime() const {
  SimTime next = kMaxSimTime;
  if (!queue_.empty()) next = queue_.NextTime();
  if (shard_ != nullptr) {
    for (const auto& lane : shard_->lanes) {
      if (!lane->queue.empty()) {
        next = std::min(next, lane->queue.NextTime());
      }
    }
  }
  return next;
}

void Simulator::AdvanceAllClocksTo(SimTime t) {
  now_ = std::max(now_, t);
  if (shard_ != nullptr) {
    for (auto& lane : shard_->lanes) lane->now = std::max(lane->now, t);
  }
}

}  // namespace flower
