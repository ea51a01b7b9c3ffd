// Static placement of servers, directory peers and client pools on the
// topology. Flower-CDN and Squirrel share one Deployment so their workloads
// are identical (same clients, same localities, same origin servers).
#ifndef FLOWERCDN_CORE_DEPLOYMENT_H_
#define FLOWERCDN_CORE_DEPLOYMENT_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/locality.h"
#include "net/topology.h"

namespace flower {

struct Deployment {
  /// Origin-server node per website, [website].
  std::vector<NodeId> server_nodes;

  /// Initial directory-peer nodes per (website, locality, instance),
  /// [website][loc][instance] (instances > 1 implement the Sec 5.3
  /// scale-up). Each lies inside its locality.
  std::vector<std::vector<std::vector<NodeId>>> dir_nodes;

  /// Client pools per (active website, locality), [active_ws][loc][i].
  /// Pool size is min(S_co, fair share of the locality's spare nodes), so
  /// overlays in small localities are smaller (paper Sec 6.1: overlays
  /// "evolve at different rhythms and sizes").
  std::vector<std::vector<std::vector<NodeId>>> client_pools;

  /// Detected locality per topology node (landmark technique), [node].
  std::vector<LocalityId> detected_locality;

  /// Plans a deployment. Deterministic given the rng state. Requires
  /// NodesNeeded(config) <= topology.num_nodes().
  static Deployment Plan(const SimConfig& config, const Topology& topology,
                         Rng* rng);

  /// Topology nodes Plan() takes before the client pools: one origin
  /// server per website and max(scaleup_instances, 1) directories per
  /// (website, locality). Saturates at UINT64_MAX.
  static uint64_t NodesNeeded(const SimConfig& config);
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_DEPLOYMENT_H_
