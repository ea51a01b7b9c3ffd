// Message-passing network over the topology, with traffic accounting and
// undeliverable-message notification (the mechanism behind the paper's
// redirection-failure handling, Sec 5.1).
//
// Accounting keeps totals per traffic class and, per address, one
// counter of background bits: the gossip, push and keepalive bits the
// peer sent plus those it received (the paper's "background traffic",
// Table 2 and Fig 5). Nothing reads per-peer bits of any other class.
#ifndef FLOWERCDN_NET_NETWORK_H_
#define FLOWERCDN_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace flower {

class FaultInjector;

/// Interface implemented by every simulated peer.
class Peer {
 public:
  virtual ~Peer() = default;

  /// Handles a delivered message. `msg->sender` is set by the network.
  virtual void HandleMessage(MessagePtr msg) = 0;

  /// Called when a message this peer sent could not be delivered (dest
  /// offline). `dest` is the failed destination. The default drops the
  /// bounce — and, in debug builds, logs it, because a silently dropped
  /// bounce for a message carrying pending-query context is a hang
  /// waiting to happen (such messages must either override this or be
  /// covered by the query-timeout path).
  virtual void HandleUndeliverable(PeerAddress dest, MessagePtr msg);

  PeerAddress address() const { return address_; }
  NodeId node() const { return node_; }

 private:
  friend class Network;
  PeerAddress address_ = kInvalidAddress;
  NodeId node_ = kInvalidNode;
};

class Network {
 public:
  Network(Simulator* sim, const Topology* topology);

  /// Registers a peer at a topology node; the node id becomes its address.
  /// A node hosts at most one live peer at a time.
  void RegisterPeer(Peer* peer, NodeId node);

  /// Removes a peer (failure or leave). In-flight messages to it are
  /// bounced back to their senders as undeliverable.
  void UnregisterPeer(Peer* peer);

  /// True if a peer is currently registered at this address.
  bool IsAlive(PeerAddress address) const {
    return address < peers_.size() && peers_[address] != nullptr;
  }

  /// Sends a message; it arrives after the topology latency. If the
  /// destination is (or goes) offline, the sender's HandleUndeliverable
  /// runs after a full round trip instead.
  ///
  /// With an active fault injector attached, a send may additionally be
  /// dropped (loss / partition window); bounces to silently-crashed
  /// destinations are suppressed.
  void Send(Peer* from, PeerAddress to, MessagePtr msg);

  /// Attaches a fault injector (nullptr detaches). The injector must
  /// outlive the network; with no injector, or an inactive one, Send is
  /// byte-identical to pre-fault-layer builds (no draws, no branches
  /// taken).
  void AttachFaultInjector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// One-way latency between two peer addresses.
  SimTime Latency(PeerAddress a, PeerAddress b) const;

  const Topology& topology() const { return *topology_; }
  Simulator* sim() { return sim_; }

  /// Gossip, push and keepalive: the classes counted as background.
  static constexpr bool IsBackground(TrafficClass c) {
    return c == TrafficClass::kGossip || c == TrafficClass::kPush ||
           c == TrafficClass::kKeepalive;
  }

  /// Traffic accounting.
  uint64_t TotalBits(TrafficClass c) const {
    return total_bits_[static_cast<size_t>(c)];
  }
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_undeliverable() const { return messages_undeliverable_; }

  /// Sum over the given peers of the background bits each sent plus
  /// those it received.
  uint64_t BackgroundBits(const std::vector<PeerAddress>& peers) const;

 private:
  static constexpr size_t kNumClasses =
      static_cast<size_t>(TrafficClass::kNumClasses);

  Simulator* sim_;
  const Topology* topology_;
  FaultInjector* injector_ = nullptr;
  std::vector<Peer*> peers_;  // address -> live peer
  // Address-indexed background bits, sent plus received.
  std::vector<uint64_t> background_bits_;
  std::array<uint64_t, kNumClasses> total_bits_{};
  uint64_t messages_sent_ = 0;
  uint64_t messages_undeliverable_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_NET_NETWORK_H_
