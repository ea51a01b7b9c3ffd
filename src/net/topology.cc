#include "net/topology.h"

#include <cassert>

namespace flower {

Topology::Topology(const SimConfig& config, Rng* rng)
    : num_localities_(config.num_localities) {
  assert(config.num_topology_nodes > config.num_localities);
  assert(config.num_localities > 0);
  Rng gen = rng->Fork();

  // Normalize locality weights to the configured locality count.
  std::vector<double> weights = config.locality_weights;
  if (static_cast<int>(weights.size()) != num_localities_) {
    weights.assign(num_localities_, 1.0);
  }

  int n = config.num_topology_nodes;
  locality_.resize(n);
  radius_.resize(n);
  members_.resize(num_localities_);

  // Intra-cluster: latency = r_a + r_b in [min_intra, max_intra], so each
  // radius lies in [min_intra/2, max_intra/2].
  const double r_lo = static_cast<double>(config.min_intra_latency) / 2.0;
  const double r_hi = static_cast<double>(config.max_intra_latency) / 2.0;

  for (int i = 0; i < n; ++i) {
    LocalityId loc = static_cast<LocalityId>(gen.WeightedIndex(weights));
    locality_[i] = loc;
    radius_[i] = static_cast<SimTime>(gen.UniformDouble(r_lo, r_hi));
    members_[loc].push_back(static_cast<NodeId>(i));
  }
  // Guarantee non-empty localities (tiny configs in tests).
  for (int l = 0; l < num_localities_; ++l) {
    if (members_[l].empty()) {
      NodeId steal = static_cast<NodeId>(l % n);
      LocalityId old = locality_[steal];
      auto& v = members_[old];
      for (size_t j = 0; j < v.size(); ++j) {
        if (v[j] == steal) {
          v.erase(v.begin() + static_cast<long>(j));
          break;
        }
      }
      locality_[steal] = static_cast<LocalityId>(l);
      members_[l].push_back(steal);
    }
  }

  // Inter-cluster base distances: latency = r_a + r_b + base must span
  // [min_inter, max_inter]; with r_a + r_b up to max_intra, draw base in
  // [min_inter - min_intra, max_inter - max_intra].
  const double b_lo = static_cast<double>(config.min_inter_latency -
                                          config.min_intra_latency);
  const double b_hi = static_cast<double>(config.max_inter_latency -
                                          config.max_intra_latency);
  base_.assign(num_localities_,
               std::vector<SimTime>(num_localities_, 0));
  for (int i = 0; i < num_localities_; ++i) {
    for (int j = i + 1; j < num_localities_; ++j) {
      SimTime d = static_cast<SimTime>(gen.UniformDouble(b_lo, b_hi));
      base_[i][j] = d;
      base_[j][i] = d;
    }
  }

  // Landmark per locality: the member with the smallest radius (closest to
  // the cluster "center"), so landmark pings from inside the cluster are
  // reliably smaller than cross-cluster ones.
  landmarks_.resize(num_localities_);
  for (int l = 0; l < num_localities_; ++l) {
    NodeId best = members_[l][0];
    for (NodeId m : members_[l]) {
      if (radius_[m] < radius_[best]) best = m;
    }
    landmarks_[l] = best;
  }
}

SimTime Topology::Latency(NodeId a, NodeId b) const {
  assert(a < locality_.size() && b < locality_.size());
  if (a == b) return 0;
  SimTime lat = radius_[a] + radius_[b] + base_[locality_[a]][locality_[b]];
  return lat;
}

}  // namespace flower
