#include "core/churn.h"

#include "net/fault_injector.h"
#include "net/network.h"

namespace flower {

ChurnManager::ChurnManager(FlowerSystem* system, const SimConfig& config,
                           uint64_t seed)
    : system_(system), config_(config), rng_(seed) {}

void ChurnManager::Start() {
  if (!config_.churn_enabled) return;
  system_->context()->sim->SchedulePeriodic(&timer_, kTick, kTick,
                                            [this]() { Tick(); });
}

bool ChurnManager::IsBlackedOut(NodeId node) const {
  auto it = blackout_until_.find(node);
  if (it == blackout_until_.end()) return false;
  return system_->context()->sim->Now() < it->second;
}

void ChurnManager::Tick() {
  Simulator* sim = system_->context()->sim;
  // Silent-crash draws come from the injector's own stream (not the churn
  // stream), so enabling fault_silent_crash_probability perturbs no churn
  // decision, and disabling it leaves the injector unconsulted.
  FaultInjector* injector = system_->context()->network->fault_injector();
  const double p_death = static_cast<double>(kTick) /
                         static_cast<double>(config_.churn_mean_session);
  SimTime blackout_end = sim->Now() + static_cast<SimTime>(rng_.Exponential(
                             static_cast<double>(config_.churn_mean_downtime)));

  for (ContentPeer* peer : system_->LiveContentPeers()) {
    if (!peer->joined()) continue;  // only established members churn
    if (!rng_.Bernoulli(p_death)) continue;
    blackout_until_[peer->node()] = blackout_end;
    if (rng_.Bernoulli(config_.churn_fail_probability)) {
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
  for (DirectoryPeer* dir : system_->LiveDirectories()) {
    if (!rng_.Bernoulli(p_death)) continue;
    blackout_until_[dir->node()] = blackout_end;
    if (rng_.Bernoulli(config_.churn_fail_probability)) {
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
