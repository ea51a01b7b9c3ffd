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
  const size_t lane_slots =
      sim->sharded() ? static_cast<size_t>(sim->shard_plan().num_lanes) + 1
                     : 1;
  total_bits_.assign(lane_slots, {});
  messages_sent_.assign(lane_slots, 0);
  messages_undeliverable_.assign(lane_slots, 0);
}

size_t Network::LaneSlot() const {
  if (total_bits_.size() == 1) return 0;
  const int lane = CurrentSimLane();
  return lane == Simulator::kControlLane ? 0
                                         : static_cast<size_t>(lane) + 1;
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

void Network::RouteAfter(PeerAddress dest, SimTime delay, EventFn fn) {
  if (!sim_->sharded()) {
    sim_->Schedule(delay, std::move(fn));
    return;
  }
  sim_->RouteToLane(sim_->LaneForNode(static_cast<NodeId>(dest)),
                    sim_->Now() + delay, std::move(fn));
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
  total_bits_[LaneSlot()][static_cast<size_t>(cls)] += bits;
  ++messages_sent_[LaneSlot()];

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
    ++messages_undeliverable_[LaneSlot()];
    if (injector_ != nullptr && injector_->SuppressBounce(to)) return;
    SimTime back = Latency(to, sender);
    auto bounce = [this, sender, to, m = std::move(m)]() mutable {
      Peer* src = sender < peers_.size() ? peers_[sender] : nullptr;
      if (src != nullptr) {
        src->HandleUndeliverable(to, std::move(m));
      }
    };
    static_assert(EventFn::FitsInline<decltype(bounce)>());
    RouteAfter(sender, back, std::move(bounce));
  };
  static_assert(EventFn::FitsInline<decltype(deliver)>());
  RouteAfter(to, Latency(sender, to), std::move(deliver));
}

SimTime Network::Latency(PeerAddress a, PeerAddress b) const {
  return topology_->Latency(static_cast<NodeId>(a), static_cast<NodeId>(b));
}

uint64_t Network::TotalBits(TrafficClass c) const {
  const size_t ci = static_cast<size_t>(c);
  uint64_t total = 0;
  for (const auto& slot : total_bits_) total += slot[ci];
  return total;
}

uint64_t Network::messages_sent() const {
  uint64_t total = 0;
  for (uint64_t m : messages_sent_) total += m;
  return total;
}

uint64_t Network::messages_undeliverable() const {
  uint64_t total = 0;
  for (uint64_t m : messages_undeliverable_) total += m;
  return total;
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
