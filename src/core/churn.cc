#include "core/churn.h"

#include "net/fault_injector.h"
#include "net/network.h"

namespace flower {

namespace {
/// Seed-stream tag for per-lane churn generators.
constexpr uint64_t kChurnLaneTag = 0xc4425c4425ull;
}  // namespace

ChurnManager::ChurnManager(FlowerSystem* system, const SimConfig& config,
                           uint64_t seed)
    : system_(system), config_(config), seed_(seed), rng_(seed) {}

void ChurnManager::Start() {
  if (!config_.churn_enabled) return;
  Simulator* sim = system_->context()->sim;
  if (!sim->sharded()) {
    blackout_until_.resize(1);
    sim->SchedulePeriodic(&timers_.emplace_back(), kTick, kTick,
                          [this]() { Tick(0, &rng_); });
    return;
  }
  // Shard-local churn: one tick process per locality lane, pinned to the
  // lane so every death decision and the triggered protocol activity
  // stay inside the lane's partition.
  const int lanes = sim->shard_plan().num_lanes;
  blackout_until_.resize(static_cast<size_t>(lanes));
  lane_rngs_.reserve(static_cast<size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    lane_rngs_.emplace_back(
        Mix64(seed_ ^ (kChurnLaneTag + static_cast<uint64_t>(l))));
  }
  for (int l = 0; l < lanes; ++l) {
    Simulator::LaneScope scope(sim, l);
    sim->SchedulePeriodic(&timers_.emplace_back(), kTick, kTick, [this, l]() {
      Tick(l, &lane_rngs_[static_cast<size_t>(l)]);
    });
  }
}

bool ChurnManager::IsBlackedOut(NodeId node) const {
  if (blackout_until_.empty()) return false;
  const auto& blackout =
      blackout_until_[static_cast<size_t>(system_->LaneOf(node))];
  auto it = blackout.find(node);
  if (it == blackout.end()) return false;
  return system_->context()->sim->Now() < it->second;
}

void ChurnManager::Tick(int lane, Rng* rng) {
  Simulator* sim = system_->context()->sim;
  // Silent-crash draws come from the injector's own lane streams (not the
  // churn streams), so enabling fault_silent_crash_probability perturbs
  // no churn decision, and disabling it leaves the injector unconsulted.
  FaultInjector* injector = system_->context()->network->fault_injector();
  const double p_death = static_cast<double>(kTick) /
                         static_cast<double>(config_.churn_mean_session);
  SimTime blackout_end = sim->Now() + static_cast<SimTime>(rng->Exponential(
                             static_cast<double>(config_.churn_mean_downtime)));
  auto& blackout = blackout_until_[static_cast<size_t>(lane)];

  // A serial system holds one partition, lane 0.
  for (ContentPeer* peer : system_->LiveContentPeersIn(lane)) {
    if (!peer->joined()) continue;  // only established members churn
    if (!rng->Bernoulli(p_death)) continue;
    blackout[peer->node()] = blackout_end;
    if (rng->Bernoulli(config_.churn_fail_probability)) {
      // A silent crash unregisters the peer like any crash, but marks the
      // address so in-flight senders never get the undeliverable bounce.
      if (injector != nullptr && injector->DrawSilentCrash()) {
        injector->MarkSilent(peer->address());
      }
      peer->Fail();
      ++failures_;
    } else {
      peer->Leave();
      ++leaves_;
    }
  }
  for (DirectoryPeer* dir : system_->LiveDirectoriesIn(lane)) {
    if (!rng->Bernoulli(p_death)) continue;
    blackout[dir->node()] = blackout_end;
    if (rng->Bernoulli(config_.churn_fail_probability)) {
      if (injector != nullptr && injector->DrawSilentCrash()) {
        injector->MarkSilent(dir->address());
      }
      dir->FailAbruptly();
      ++failures_;
    } else {
      dir->LeaveGracefully();
      ++leaves_;
    }
  }
}

}  // namespace flower
