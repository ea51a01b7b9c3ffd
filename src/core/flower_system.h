// FlowerSystem: the public facade wiring D-ring, content overlays, origin
// servers and metrics into one runnable Flower-CDN instance.
//
// Typical use goes through the Experiment builder (src/api/experiment.h),
// which owns this wiring and adds pluggable workloads and result sinks:
//   RunResult r = Experiment(config).WithSystem("flower").Run();
//
// Appendix — low-level wiring, for embedders that need to drive the
// system directly (see examples/locality_migration.cpp; this is what the
// builder does internally):
//   Simulator sim(seed);
//   Topology topo(config, sim.rng());
//   Network net(&sim, &topo);
//   Metrics metrics(config);
//   FlowerSystem system(config, &sim, &net, &topo, &metrics);
//   system.Setup();
//   ... system.SubmitQuery(node, website, object) per workload event ...
//   sim.RunUntil(config.duration);
#ifndef FLOWERCDN_CORE_FLOWER_SYSTEM_H_
#define FLOWERCDN_CORE_FLOWER_SYSTEM_H_

#include <memory>
#include <vector>

#include "common/config.h"
#include "core/content_peer.h"
#include "core/deployment.h"
#include "core/directory_peer.h"
#include "core/flower_context.h"
#include "core/flower_ids.h"
#include "core/origin_server.h"
#include "core/peer_table.h"
#include "core/website.h"
#include "dht/chord_ring.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace flower {

class FlowerSystem {
 public:
  FlowerSystem(const SimConfig& config, Simulator* sim, Network* network,
               const Topology* topology, Metrics* metrics);
  ~FlowerSystem();

  FlowerSystem(const FlowerSystem&) = delete;
  FlowerSystem& operator=(const FlowerSystem&) = delete;

  /// Creates origin servers and the initial stable D-ring (one directory
  /// peer per (website, locality), empty directories; paper Sec 6.1).
  void Setup();

  /// Workload entry point: the peer at `node` requests `object` of the
  /// website with index `website`. Creates the client on first use.
  void SubmitQuery(NodeId node, WebsiteId website, ObjectId object);

  // --- Services used by peers -----------------------------------------------

  /// A random live directory peer to route through (bootstrap service).
  PeerAddress BootstrapDirectory(Rng* rng) const;

  /// Promotes `candidate` to directory peer for `dir_key` after a granted
  /// replacement join (Sec 5.2). Returns the address of the directory that
  /// is now in charge: the candidate's own address on success, the racing
  /// winner's address if the position was taken meanwhile, or
  /// kInvalidAddress on failure. On success the candidate object is
  /// unregistered and scheduled for deletion — the caller must not touch it.
  PeerAddress PromoteReplacement(ContentPeer* candidate, Key dir_key);

  /// Promotes `candidate` using a voluntary-leave handoff. Returns true on
  /// success (candidate defunct), false if the position was already taken.
  bool PromoteWithHandoff(ContentPeer* candidate,
                          std::unique_ptr<DirectoryHandoffMsg> handoff);

  // --- Introspection / experiment support --------------------------------------

  const WebsiteCatalog& catalog() const { return *catalog_; }
  const Deployment& deployment() const { return deployment_; }
  const DRingIdScheme& scheme() const { return scheme_; }
  ChordRing* dring() { return &dring_; }
  FlowerContext* context() { return &ctx_; }

  /// The current directory peer of (website, locality), or nullptr.
  DirectoryPeer* FindDirectory(WebsiteId website, LocalityId locality,
                               uint32_t instance = 0) const;

  /// Looks up the peer object living at a node (any role), or nullptr.
  ContentPeer* FindContentPeer(NodeId node) const;
  OriginServer* FindServer(WebsiteId website) const;

  /// Addresses of all live participants (content + directory peers) —
  /// the population over which background traffic is averaged.
  std::vector<PeerAddress> ParticipantAddresses() const;

  /// All live content peers / directories, ordered by node (churn, view
  /// statistics and tests).
  std::vector<ContentPeer*> LiveContentPeers() const;
  std::vector<DirectoryPeer*> LiveDirectories() const;

  uint64_t promotions() const { return promotions_; }

  /// Aggregated end-of-run view state over joined content peers. All
  /// accumulation is integral, so the result is independent of peer
  /// iteration order.
  struct GossipStats {
    size_t joined_peers = 0;
    double mean_view_size = 0;
    /// View entries that carry a content summary.
    double mean_summaries_known = 0;
  };
  GossipStats CollectGossipStats() const;

 private:
  friend class ContentPeer;
  friend class DirectoryPeer;

  DirectoryPeer* CreateDirectory(const Website* site, LocalityId locality,
                                 uint32_t instance, NodeId node);

  SimConfig config_;
  Simulator* sim_;
  Network* network_;
  const Topology* topology_;
  Metrics* metrics_;

  DRingIdScheme scheme_;
  ChordRing dring_;
  std::unique_ptr<WebsiteCatalog> catalog_;
  Deployment deployment_;
  FlowerContext ctx_;
  Rng rng_;

  std::vector<std::unique_ptr<OriginServer>> servers_;
  // All client/content/directory peers keyed by topology node, in dense
  // PeerTables. Every iteration the simulation observes is sorted by
  // node id before use, so behavior is independent of the tables' slot
  // layout.
  PeerTable<ContentPeer> content_peers_;
  PeerTable<DirectoryPeer> directories_;
  // Deferred deletions, cleared by a zero-delay event.
  std::vector<std::unique_ptr<Peer>> graveyard_;
  uint64_t promotions_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_FLOWER_SYSTEM_H_
