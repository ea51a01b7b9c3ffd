// A Chord DHT node (Stoica et al., SIGCOMM 2001 — the paper's [7]), with
// recursive key-based routing per the common KBR API (Dabek et al. — [6]).
//
// Routing follows the paper's Algorithm 1 ("DHT Standard route"). Three
// protected hooks let subclasses implement D-ring's modified routing
// (paper Algorithm 2) without touching the DHT core:
//   - SelectNextHop()  : override the locally chosen next hop
//   - AcceptDelivery() : veto delivery at the standard responsible node
//   - CorrectionHop()  : propose a better node when delivery was vetoed
//
// The ring is a perfectly stabilized Chord (the paper's experiments "start
// with a stable D-ring"): joins and failures apply instantly through
// ChordRing, and a node reads its predecessor, successor list and fingers
// from the ring's sorted membership rather than keeping copies. The one
// exception is KnownPeers(), which reads every finger and which D-ring's
// local lookup (Algorithm 2) calls on each hop: it is kept until the
// ring's version moves. No maintenance protocol runs; routing still pays
// every per-hop message and its latency.
#ifndef FLOWERCDN_DHT_CHORD_NODE_H_
#define FLOWERCDN_DHT_CHORD_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "dht/chord_id.h"
#include "dht/chord_messages.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace flower {

class ChordRing;

struct ChordConfig {
  int id_bits = 40;
  int max_route_hops = 128;
};

/// Application upcall interface (common KBR API).
class KbrApp {
 public:
  virtual ~KbrApp() = default;

  struct DeliveryInfo {
    int hops = 0;
    SimTime first_routed = -1;
  };

  /// The node executing this app is responsible for `key`.
  virtual void Deliver(Key key, MessagePtr payload,
                       const DeliveryInfo& info) = 0;
};

class ChordNode : public Peer {
 public:
  ChordNode(Simulator* sim, Network* network, ChordRing* ring, Key id);

  Key id() const { return id_; }
  const IdSpace& space() const;
  bool joined() const { return joined_; }

  void set_app(KbrApp* app) { app_ = app; }
  KbrApp* app() const { return app_; }

  // --- Lifecycle -----------------------------------------------------------

  /// Registers this peer on the network at the given topology node.
  void Activate(NodeId node);

  /// Instant structural insertion into the ring. Returns false if the
  /// identifier is already taken by a live node.
  bool JoinStructural();

  /// Crash: disappears without notice.
  void Fail();

  // --- Key-based routing -----------------------------------------------------

  /// Routes a payload toward the node responsible for `key`, starting here.
  void Route(Key key, MessagePtr payload);

  // --- Introspection (tests, directory summaries) ----------------------------

  NodeRef self_ref() const { return NodeRef{id_, address()}; }
  NodeRef successor() const;
  NodeRef predecessor() const;
  /// The next four live nodes clockwise (fewer on a smaller ring), self
  /// excluded.
  std::vector<NodeRef> SuccessorList() const;
  /// Finger i: the live successor of id + 2^i.
  NodeRef finger(int i) const;

  /// All peers this node knows (fingers, predecessor, successor), each
  /// once, in that order of first appearance. Used by D-ring's
  /// conditional local lookup. Valid until the ring changes.
  const std::vector<NodeRef>& KnownPeers() const;

  // --- Peer interface --------------------------------------------------------
  void HandleMessage(MessagePtr msg) override;
  void HandleUndeliverable(PeerAddress dest, MessagePtr msg) override;

 protected:
  /// Paper Algorithm 2 hook: may replace the default next hop.
  virtual NodeRef SelectNextHop(Key key, NodeRef candidate) {
    (void)key;
    return candidate;
  }

  /// Returns false to veto delivery at the standard responsible node.
  virtual bool AcceptDelivery(Key key) {
    (void)key;
    return true;
  }

  /// When delivery was vetoed: a strictly better node to forward to, or an
  /// invalid ref to deliver here anyway.
  virtual NodeRef CorrectionHop(Key key) {
    (void)key;
    return NodeRef{};
  }

  Simulator* sim() const { return sim_; }
  Network* network() const { return network_; }
  ChordRing* ring() const { return ring_; }

 private:
  void HandleRoute(std::unique_ptr<RouteMsg> msg);
  void Deliver(std::unique_ptr<RouteMsg> msg);

  /// Closest known node preceding `key` (standard Chord greedy step).
  NodeRef ClosestPreceding(Key key) const;

  Simulator* sim_;
  Network* network_;
  ChordRing* ring_;
  Key id_;
  KbrApp* app_ = nullptr;
  bool joined_ = false;

  // KnownPeers() as of ring version known_peers_version_; a ring change
  // (setup, churn, Squirrel's lazy joins) bumps the version.
  mutable std::vector<NodeRef> known_peers_;
  mutable uint64_t known_peers_version_ = ~uint64_t{0};
};

}  // namespace flower

#endif  // FLOWERCDN_DHT_CHORD_NODE_H_
