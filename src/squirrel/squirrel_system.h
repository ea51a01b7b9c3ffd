// SquirrelSystem: facade mirroring FlowerSystem for the baseline, so the
// figure and ablation runs compare both under the identical synthetic
// workload (same seed, same deployment, same query stream).
#ifndef FLOWERCDN_SQUIRREL_SQUIRREL_SYSTEM_H_
#define FLOWERCDN_SQUIRREL_SQUIRREL_SYSTEM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/deployment.h"
#include "core/origin_server.h"
#include "core/website.h"
#include "dht/chord_ring.h"
#include "squirrel/squirrel_node.h"

namespace flower {

class SquirrelSystem {
 public:
  SquirrelSystem(const SimConfig& config, Simulator* sim, Network* network,
                 const Topology* topology, Metrics* metrics);
  ~SquirrelSystem();

  SquirrelSystem(const SquirrelSystem&) = delete;
  SquirrelSystem& operator=(const SquirrelSystem&) = delete;

  /// Creates origin servers. Client nodes join the DHT lazily on their
  /// first query (Squirrel is an organization-wide cache: every browsing
  /// node participates).
  void Setup();

  /// Workload entry point (same signature as FlowerSystem).
  void SubmitQuery(NodeId node, WebsiteId website, ObjectId object);

  const WebsiteCatalog& catalog() const { return *catalog_; }
  const Deployment& deployment() const { return deployment_; }
  ChordRing* ring() { return &ring_; }

  SquirrelNode* FindNode(NodeId node) const;
  std::vector<PeerAddress> ParticipantAddresses() const;

 private:
  SimConfig config_;
  Simulator* sim_;
  Network* network_;
  const Topology* topology_;
  Metrics* metrics_;

  DRingIdScheme scheme_;  // used only to build an identical catalog
  ChordRing ring_;
  std::unique_ptr<WebsiteCatalog> catalog_;
  Deployment deployment_;
  SquirrelContext ctx_;
  Rng rng_;

  std::vector<std::unique_ptr<OriginServer>> servers_;
  std::unordered_map<NodeId, std::unique_ptr<SquirrelNode>> nodes_;
};

}  // namespace flower

#endif  // FLOWERCDN_SQUIRREL_SQUIRREL_SYSTEM_H_
