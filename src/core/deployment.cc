#include "core/deployment.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace flower {

uint64_t Deployment::NodesNeeded(const SimConfig& config) {
  const uint64_t sites =
      static_cast<uint64_t>(std::max(config.num_websites, 1));
  const uint64_t localities =
      static_cast<uint64_t>(std::max(config.num_localities, 1));
  const uint64_t instances =
      static_cast<uint64_t>(std::max(config.scaleup_instances, 1));
  // Below 2^63: both factors are ints.
  const uint64_t per_site = 1 + localities * instances;
  if (per_site > std::numeric_limits<uint64_t>::max() / sites) {
    return std::numeric_limits<uint64_t>::max();
  }
  return sites * per_site;
}

Deployment Deployment::Plan(const SimConfig& config,
                            const Topology& topology, Rng* rng) {
  assert(NodesNeeded(config) <= static_cast<uint64_t>(topology.num_nodes()));
  Deployment d;
  Rng gen = rng->Fork();
  const int k = topology.num_localities();
  const int num_sites = config.num_websites;
  const int num_active = std::min(config.num_active_websites, num_sites);

  // Locality detection for every node, via simulated landmark pings.
  LandmarkLocalityDetector detector(&topology);
  d.detected_locality.resize(static_cast<size_t>(topology.num_nodes()));
  for (int n = 0; n < topology.num_nodes(); ++n) {
    d.detected_locality[static_cast<size_t>(n)] =
        detector.Detect(static_cast<NodeId>(n), &gen);
  }

  // Free-node pools per detected locality, shuffled for random placement.
  std::vector<std::vector<NodeId>> free_nodes(static_cast<size_t>(k));
  for (int n = 0; n < topology.num_nodes(); ++n) {
    free_nodes[d.detected_locality[static_cast<size_t>(n)]].push_back(
        static_cast<NodeId>(n));
  }
  for (auto& pool : free_nodes) gen.Shuffle(&pool);

  auto take_from = [&free_nodes](LocalityId loc) -> NodeId {
    auto* pool = &free_nodes[loc];
    if (pool->empty()) {
      // Degenerate topologies (e.g. a flat latency ablation) can leave a
      // detected-locality bin empty; borrow from the fullest bin so every
      // (website, locality) still gets its directory peer.
      for (auto& candidate : free_nodes) {
        if (candidate.size() > pool->size()) pool = &candidate;
      }
      assert(!pool->empty() && "topology exhausted during deployment");
    }
    NodeId n = pool->back();
    pool->pop_back();
    return n;
  };

  // Origin servers: one node per website, spread round-robin over
  // localities (their placement is arbitrary in the paper).
  d.server_nodes.resize(static_cast<size_t>(num_sites));
  for (int w = 0; w < num_sites; ++w) {
    d.server_nodes[static_cast<size_t>(w)] =
        take_from(static_cast<LocalityId>(w % k));
  }

  // Initial directory peers: `scaleup_instances` per (website, locality),
  // inside the locality (paper: the experiments start with a stable
  // D-ring; Sec 5.3 allows several instances).
  int instances = std::max(config.scaleup_instances, 1);
  d.dir_nodes.assign(
      static_cast<size_t>(num_sites),
      std::vector<std::vector<NodeId>>(
          static_cast<size_t>(k),
          std::vector<NodeId>(static_cast<size_t>(instances))));
  for (int w = 0; w < num_sites; ++w) {
    for (int l = 0; l < k; ++l) {
      for (int i = 0; i < instances; ++i) {
        d.dir_nodes[static_cast<size_t>(w)][static_cast<size_t>(l)]
                   [static_cast<size_t>(i)] =
            take_from(static_cast<LocalityId>(l));
      }
    }
  }

  // Client pools for the active websites: each locality's remaining nodes
  // are split evenly across active websites, capped at S_co per overlay.
  d.client_pools.assign(
      static_cast<size_t>(num_active),
      std::vector<std::vector<NodeId>>(static_cast<size_t>(k)));
  for (int l = 0; l < k; ++l) {
    size_t spare = free_nodes[static_cast<size_t>(l)].size();
    size_t share = num_active > 0 ? spare / static_cast<size_t>(num_active)
                                  : 0;
    size_t pool_size = std::min(
        share, static_cast<size_t>(config.max_content_overlay_size));
    for (int w = 0; w < num_active; ++w) {
      auto& pool =
          d.client_pools[static_cast<size_t>(w)][static_cast<size_t>(l)];
      pool.reserve(pool_size);
      for (size_t i = 0; i < pool_size; ++i) {
        pool.push_back(take_from(static_cast<LocalityId>(l)));
      }
    }
  }
  return d;
}

}  // namespace flower
