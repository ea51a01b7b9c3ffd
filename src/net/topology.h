// Underlying Internet topology model (BRITE-inspired, see DESIGN.md).
//
// Nodes are grouped into k locality clusters. The latency between two nodes
// is:
//   same cluster:      radius(a) + radius(b)                 (~10..100 ms)
//   different cluster: radius(a) + radius(b) + base(la, lb)  (~100..500 ms)
// where radius(n) is a per-node jitter and base is a symmetric per-cluster
// distance matrix. This reproduces the paper's 10-500 ms link range and the
// structure that the landmark technique bins into localities.
#ifndef FLOWERCDN_NET_TOPOLOGY_H_
#define FLOWERCDN_NET_TOPOLOGY_H_

#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"

namespace flower {

class Topology {
 public:
  /// Builds a topology from the config (node count, localities, weights,
  /// latency ranges) using a generator forked from `rng`.
  Topology(const SimConfig& config, Rng* rng);

  int num_nodes() const { return static_cast<int>(locality_.size()); }
  int num_localities() const { return num_localities_; }

  /// Ground-truth locality of a node.
  LocalityId LocalityOf(NodeId n) const { return locality_[n]; }

  /// One-way latency between two nodes, in ms. Latency(n, n) == 0.
  SimTime Latency(NodeId a, NodeId b) const;

  /// The landmark node of a locality (a well-connected node near the
  /// cluster center, used by landmark-based locality detection).
  NodeId Landmark(LocalityId loc) const { return landmarks_[loc]; }

  /// All nodes belonging to the given locality.
  const std::vector<NodeId>& NodesIn(LocalityId loc) const {
    return members_[loc];
  }

 private:
  int num_localities_;
  std::vector<LocalityId> locality_;   // node -> locality
  std::vector<SimTime> radius_;        // node -> intra-cluster jitter
  std::vector<std::vector<SimTime>> base_;  // cluster-pair base distance
  std::vector<NodeId> landmarks_;      // locality -> landmark node
  std::vector<std::vector<NodeId>> members_;
};

}  // namespace flower

#endif  // FLOWERCDN_NET_TOPOLOGY_H_
