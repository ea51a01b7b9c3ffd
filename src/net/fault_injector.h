// Deterministic fault injection for the simulated network: message loss
// (one probability for every traffic class), partition windows between a
// locality and another locality or everyone else, and silent crash-stop.
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

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace flower {

/// One side of a partition cut: a whole locality, or "everyone else"
/// (the complement of the other side).
struct PartitionSide {
  enum class Kind { kLocality, kRest };
  Kind kind = Kind::kLocality;
  LocalityId locality = 0;
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
  double loss = 0;  // drop probability of every message, any class
  std::vector<PartitionWindow> partitions;
  double silent_crash_probability = 0;  // churn fail -> no bounce

  /// Parses the fault_* keys of a config (specs documented on the keys in
  /// common/config.h). Fails on malformed specs, probabilities outside
  /// [0, 1], or inverted windows.
  static Result<FaultPlan> FromConfig(const SimConfig& config);

  /// True if any fault dimension is enabled.
  bool Active() const;
};

/// Parses a loss spec: one probability in [0, 1] ("0.05"); empty is 0.
Status ParseLossSpec(const std::string& spec, double* out);

/// Parses a partition spec: ";"-separated windows "A|B@START-END" where
/// each side is a locality id or "*" (everyone else), and START/END
/// accept the config time suffixes.
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

  /// True if a partition window cuts the a<->b link at time `now`.
  /// Pure (no RNG).
  bool CutsLink(PeerAddress a, PeerAddress b, SimTime now) const;
  /// Counts a partition-window drop on the current lane.
  void CountPartitionDrop() { ++Self().partition_drops; }

  /// Draws (only when loss > 0) whether to drop a message; counts the
  /// drop.
  bool DrawLoss();

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
