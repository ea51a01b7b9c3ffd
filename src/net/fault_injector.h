// Deterministic fault injection for the simulated network (loss,
// partition windows, silent crash-stop).
//
// All probabilistic draws come from per-lane RNG streams derived from the
// master seed (Mix64(seed ^ (kFaultLaneTag + slot))), never from the
// simulator's master RNG, so attaching an injector with every fault
// disabled changes no output byte, and sharded runs stay byte-identical
// across shard counts and executors (lanes == localities, which is
// shard-count invariant). Partition cuts are a pure function of
// (sender, destination, time) and draw nothing.
//
// Counters follow the Network's lane-split discipline: one slot per
// execution lane (+ control), written only by events on that lane and
// folded on read.
#ifndef FLOWERCDN_NET_FAULT_INJECTOR_H_
#define FLOWERCDN_NET_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/message.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace flower {

/// One side of a partition cut: a whole locality, an explicit node set,
/// or "everyone else" (the complement of the other side).
struct PartitionSide {
  enum class Kind { kLocality, kNodes, kRest };
  Kind kind = Kind::kLocality;
  LocalityId locality = 0;
  std::vector<PeerAddress> nodes;  // sorted, kNodes only
};

/// A scheduled cut: messages crossing A<->B are dropped while
/// t in [start, end).
struct PartitionWindow {
  PartitionSide a;
  PartitionSide b;
  SimTime start = 0;
  SimTime end = 0;
};

/// Parsed, validated fault model. All defaults are "off": a default plan
/// is inactive and an injector built from it never draws.
struct FaultPlan {
  static constexpr size_t kNumClasses =
      static_cast<size_t>(TrafficClass::kNumClasses);

  std::array<double, kNumClasses> loss{};  // per-class drop prob
  std::vector<PartitionWindow> partitions;
  double silent_crash_probability = 0;  // churn fail -> no bounce

  /// Parses the fault_* keys of a config (specs documented on the keys in
  /// common/config.h). Fails on malformed specs, probabilities outside
  /// [0, 1], unknown traffic classes, or inverted windows.
  static Result<FaultPlan> FromConfig(const SimConfig& config);

  /// True if any fault dimension is enabled.
  bool Active() const;
  bool AnyLoss() const;
};

/// Parses a loss spec: either a bare probability ("0.05",
/// all classes) or comma-separated "class:prob" pairs
/// ("query:0.05,push:0.1") with TrafficClassName class names.
Status ParseClassProbSpec(const std::string& key, const std::string& spec,
                          std::array<double, FaultPlan::kNumClasses>* out);

/// Parses a partition spec: ";"-separated windows "A|B@START-END" where
/// each side is a locality id, "*" (everyone else), or "n"-prefixed node
/// list ("n5,n7"), and START/END accept the config time suffixes.
Status ParsePartitionSpec(const std::string& spec,
                          std::vector<PartitionWindow>* out);

class FaultInjector {
 public:
  /// Build after EnableSharding (lane-slot layout mirrors the Network's).
  /// Draws nothing from the simulator's master RNG.
  FaultInjector(FaultPlan plan, Simulator* sim, const Topology* topology);

  /// True if any fault dimension is enabled; the Network skips every
  /// injection hook (and every draw) when false.
  bool active() const { return active_; }

  const FaultPlan& plan() const { return plan_; }

  /// True if a partition window cuts the a<->b link at time `now`.
  /// Pure (no RNG).
  bool CutsLink(PeerAddress a, PeerAddress b, SimTime now) const;
  /// Counts a partition-window drop on the current lane.
  void CountPartitionDrop() { ++Self().partition_drops; }

  /// Draws (only when loss[cls] > 0) whether to drop this message;
  /// counts the drop.
  bool DrawLoss(TrafficClass cls);

  /// Draws (only when silent_crash_probability > 0) whether an upcoming
  /// churn crash-failure goes dark silently (no undeliverable bounce).
  bool DrawSilentCrash();

  /// Marks an address as silently crashed: messages to it are still
  /// undeliverable, but the sender's bounce is suppressed. Cleared when a
  /// peer re-registers at the address. Must run on the address's lane.
  void MarkSilent(PeerAddress address);
  void ClearSilent(PeerAddress address);
  /// True (and counted) if the bounce to `address` must be suppressed.
  bool SuppressBounce(PeerAddress address);

  /// Fault counters, folded over lanes. Stable at barriers, like the
  /// Network's totals.
  uint64_t injected_drops() const;
  uint64_t partition_drops() const;
  uint64_t bounces_suppressed() const;
  uint64_t silent_crashes() const;

 private:
  struct LaneCounters {
    uint64_t injected_drops = 0;
    uint64_t partition_drops = 0;
    uint64_t bounces_suppressed = 0;
    uint64_t silent_crashes = 0;
  };

  size_t LaneSlot() const;
  LaneCounters& Self() { return counters_[LaneSlot()]; }
  Rng& SelfRng() { return rngs_[LaneSlot()]; }
  uint64_t Fold(uint64_t LaneCounters::* member) const;

  FaultPlan plan_;
  const Topology* topology_;
  bool active_ = false;
  size_t lane_slots_ = 1;
  // One derived stream + counter block per lane slot (0 = control/serial,
  // lane + 1 otherwise), written only by events on that lane.
  LANE_CONFINED std::vector<Rng> rngs_;
  LANE_CONFINED std::vector<LaneCounters> counters_;
  // address -> silently crashed; written on the owner's lane (churn tick /
  // re-registration) and read on the owner's lane (delivery closure).
  LANE_CONFINED std::vector<uint8_t> silent_;
};

}  // namespace flower

#endif  // FLOWERCDN_NET_FAULT_INJECTOR_H_
