#include "net/network.h"

#include <cassert>
#include <memory>

#include "common/logging.h"
#include "net/fault_injector.h"

namespace flower {

void Peer::HandleUndeliverable(PeerAddress dest, MessagePtr msg) {
  (void)dest;
  (void)msg;
#ifndef NDEBUG
  // A dropped bounce is only safe for fire-and-forget traffic; anything
  // carrying pending-query context must override this handler or be
  // covered by the query-timeout path (see ISSUE audit). Surface the
  // drop in debug builds so new message types cannot regress silently.
  FLOWER_LOG(Debug) << "peer " << address_ << " dropped undeliverable "
                    << TrafficClassName(msg->traffic_class())
                    << " bounce for dest " << dest;
#endif
}

Network::Network(Simulator* sim, const Topology* topology)
    : sim_(sim), topology_(topology) {
  assert(sim != nullptr && topology != nullptr);
  const size_t n = static_cast<size_t>(topology->num_nodes());
  peers_.assign(n, nullptr);
  background_bits_.assign(n, 0);
}

void Network::RegisterPeer(Peer* peer, NodeId node) {
  assert(peer != nullptr);
  assert(node < static_cast<NodeId>(topology_->num_nodes()));
  PeerAddress address = static_cast<PeerAddress>(node);
  assert(peers_[address] == nullptr && "node already hosts a live peer");
  peer->address_ = address;
  peer->node_ = node;
  peers_[address] = peer;
  // A rebirth at a silently-crashed address is reachable again.
  if (injector_ != nullptr) injector_->ClearSilent(address);
}

void Network::UnregisterPeer(Peer* peer) {
  assert(peer != nullptr);
  PeerAddress address = peer->address();
  if (address < peers_.size() && peers_[address] == peer) {
    peers_[address] = nullptr;
  }
}

void Network::Send(Peer* from, PeerAddress to, MessagePtr msg) {
  assert(from != nullptr);
  assert(msg != nullptr);
  PeerAddress sender = from->address();
  assert(sender != kInvalidAddress && "sender not registered");
  const uint64_t bits = msg->SizeBits() + kMessageHeaderBits;
  const TrafficClass cls = msg->traffic_class();
  // Bits the receiver adds to its background counter on delivery.
  const uint64_t background = IsBackground(cls) ? bits : 0;

  background_bits_[sender] += background;
  total_bits_[static_cast<size_t>(cls)] += bits;
  ++messages_sent_;

  msg->sender = sender;

  // Fault-injection hooks. The entire block is skipped — no draw, no
  // extra branch in the delivery path — when no active injector is
  // attached, keeping default runs byte-identical to pre-fault builds.
  if (injector_ != nullptr && injector_->active()) {
    if (injector_->CutsLink(sender, to, sim_->Now())) {
      // The message disappears inside the partition: the sender sees
      // neither a delivery nor a bounce (sent-side accounting stands;
      // the bits left the NIC).
      injector_->CountPartitionDrop();
      return;
    }
    if (injector_->DrawLoss()) return;
  }

  // EventFn closures are move-only-friendly, so the message rides in the
  // closure directly — no shared_ptr holder allocation per send.
  auto deliver = [this, sender, to, background,
                  m = std::move(msg)]() mutable {
    Peer* dest = to < peers_.size() ? peers_[to] : nullptr;
    if (dest != nullptr) {
      background_bits_[to] += background;
      dest->HandleMessage(std::move(m));
      return;
    }
    // Destination offline: notify the sender after the return trip —
    // unless the destination crashed *silently*, in which case the
    // message is swallowed and the sender must rely on timeouts or
    // keepalive suspicion instead.
    ++messages_undeliverable_;
    if (injector_ != nullptr && injector_->SuppressBounce(to)) return;
    SimTime back = Latency(to, sender);
    auto bounce = [this, sender, to, m = std::move(m)]() mutable {
      Peer* src = sender < peers_.size() ? peers_[sender] : nullptr;
      if (src != nullptr) {
        src->HandleUndeliverable(to, std::move(m));
      }
    };
    static_assert(EventFn::FitsInline<decltype(bounce)>());
    sim_->Schedule(back, std::move(bounce));
  };
  static_assert(EventFn::FitsInline<decltype(deliver)>());
  sim_->Schedule(Latency(sender, to), std::move(deliver));
}

SimTime Network::Latency(PeerAddress a, PeerAddress b) const {
  return topology_->Latency(static_cast<NodeId>(a), static_cast<NodeId>(b));
}

uint64_t Network::BackgroundBits(
    const std::vector<PeerAddress>& peers) const {
  uint64_t total = 0;
  for (PeerAddress p : peers) {
    if (p < background_bits_.size()) total += background_bits_[p];
  }
  return total;
}

}  // namespace flower
