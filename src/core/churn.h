// Churn driver (paper Sec 5 / Sec 8 "empirically analysing the behavior of
// Flower-CDN in presence of churn").
//
// Sessions are memoryless: every tick, each live peer dies with probability
// tick/mean_session (equivalent to exponential session lengths). A death is
// a crash with churn_fail_probability, otherwise a graceful leave (content
// peers say goodbye to their directory; directory peers hand their
// directory over, Sec 5.2). Dead nodes rejoin as fresh clients the next
// time the workload picks them, after a configurable blackout.
//
// On a sharded simulator the driver is shard-local: each locality lane
// runs its own tick timer with its own RNG stream over its own peer
// partition, so session deaths, blackouts and the resulting
// handoffs/promotions are decided entirely inside the lane (the promotion
// itself runs on the dying peer's lane; only its ring bookkeeping is
// global, which is why churn keeps the cooperative executor).
#ifndef FLOWERCDN_CORE_CHURN_H_
#define FLOWERCDN_CORE_CHURN_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/flower_system.h"

namespace flower {

class ChurnManager {
 public:
  ChurnManager(FlowerSystem* system, const SimConfig& config, uint64_t seed);

  /// Starts the churn process (no-op if config.churn_enabled is false).
  void Start();

  /// True if the node is in its post-death blackout (the workload driver
  /// should skip queries from it — the user is offline).
  bool IsBlackedOut(NodeId node) const;

  uint64_t failures() const { return failures_; }
  uint64_t leaves() const { return leaves_; }

 private:
  /// One churn round over lane partition `lane` with generator `rng`
  /// (the whole population on a serial simulator).
  void Tick(int lane, Rng* rng);

  FlowerSystem* system_;
  SimConfig config_;
  uint64_t seed_;
  Rng rng_;
  // Sharded mode: one stream per lane, drawn from only by that lane's
  // tick process.
  LANE_CONFINED std::vector<Rng> lane_rngs_;
  // One tick timer per lane (one on a serial simulator); a deque, because
  // the scheduled ticks point at their timers.
  std::deque<Simulator::PeriodicTimer> timers_;
  // Blackout bookkeeping partitioned like the peers: lane ticks write
  // only their own partition.
  LANE_CONFINED std::vector<std::unordered_map<NodeId, SimTime>>
      blackout_until_;
  uint64_t failures_ = 0;
  uint64_t leaves_ = 0;

  static constexpr SimTime kTick = 1 * kMinute;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_CHURN_H_
