#include "dht/chord_node.h"

#include <array>
#include <cassert>

#include "common/logging.h"
#include "dht/chord_ring.h"
#include "stats/metrics.h"

namespace flower {

namespace {
constexpr int kSuccessorListSize = 4;
}  // namespace

ChordNode::ChordNode(Simulator* sim, Network* network, ChordRing* ring,
                     Key id)
    : sim_(sim), network_(network), ring_(ring), id_(ring->space().Clamp(id)) {
  assert(sim != nullptr && network != nullptr && ring != nullptr);
}

const IdSpace& ChordNode::space() const { return ring_->space(); }

void ChordNode::Activate(NodeId node) { network_->RegisterPeer(this, node); }

bool ChordNode::JoinStructural() {
  assert(address() != kInvalidAddress && "Activate() before joining");
  if (!ring_->Insert(this)) return false;
  joined_ = true;
  return true;
}

void ChordNode::Fail() {
  ring_->Remove(this);
  joined_ = false;
  network_->UnregisterPeer(this);
}

// --- Neighbor reads ----------------------------------------------------------

NodeRef ChordNode::successor() const {
  ChordNode* s = ring_->SuccessorOf(space().Add(id_, 1));
  return s == nullptr ? self_ref() : s->self_ref();
}

NodeRef ChordNode::predecessor() const {
  ChordNode* p = ring_->PredecessorOf(id_);
  return p == nullptr ? NodeRef{} : p->self_ref();
}

std::vector<NodeRef> ChordNode::SuccessorList() const {
  std::vector<NodeRef> out;
  Key from = space().Add(id_, 1);
  for (int i = 0; i < kSuccessorListSize; ++i) {
    ChordNode* s = ring_->SuccessorOf(from);
    if (s == nullptr || s == this) break;
    out.push_back(s->self_ref());
    if (out.size() >= ring_->size() - 1) break;
    from = space().Add(s->id(), 1);
  }
  return out;
}

NodeRef ChordNode::finger(int i) const {
  assert(i >= 0 && i < space().bits());
  Key start = space().Add(id_, 1ULL << i);
  ChordNode* s = ring_->SuccessorOf(start);
  return s == nullptr ? NodeRef{} : s->self_ref();
}

const std::vector<NodeRef>& ChordNode::KnownPeers() const {
  if (known_peers_version_ == ring_->version()) return known_peers_;
  known_peers_version_ = ring_->version();
  // Collected on the stack first (at most 64 fingers, the predecessor and
  // the successor), so the member is sized exactly and a rebuild with no
  // more peers than before reuses its buffer.
  std::array<NodeRef, 64 + 2> found;
  size_t n = 0;
  auto push_unique = [&found, &n](const NodeRef& r) {
    if (!r.valid()) return;
    for (size_t i = 0; i < n; ++i) {
      if (found[i].addr == r.addr) return;
    }
    found[n++] = r;
  };
  for (int i = 0; i < space().bits(); ++i) push_unique(finger(i));
  push_unique(predecessor());
  push_unique(successor());
  known_peers_.assign(found.begin(), found.begin() + n);
  return known_peers_;
}

// --- Routing -----------------------------------------------------------------

NodeRef ChordNode::ClosestPreceding(Key key) const {
  // The highest finger in (id_, key), scanning from the top. A finger whose
  // start lies past key cannot qualify, so it costs no ring lookup.
  const IdSpace& sp = space();
  for (int i = sp.bits() - 1; i >= 0; --i) {
    Key start = sp.Add(id_, 1ULL << i);
    if (!sp.InHalfOpenRight(start, id_, key)) continue;
    NodeRef f = finger(i);
    if (f.valid() && f.addr != address() &&
        sp.InOpenInterval(f.id, id_, key)) {
      return f;
    }
  }
  return successor();
}

void ChordNode::Route(Key key, MessagePtr payload) {
  auto msg = std::make_unique<RouteMsg>(space().Clamp(key),
                                        std::move(payload));
  msg->first_sent = sim_->Now();
  HandleRoute(std::move(msg));
}

void ChordNode::Deliver(std::unique_ptr<RouteMsg> msg) {
  if (app_ == nullptr) {
    FLOWER_LOG(Warn) << "route delivered to node " << id_ << " with no app";
    return;
  }
  KbrApp::DeliveryInfo info;
  info.hops = msg->hops;
  info.first_routed = msg->first_sent;
  app_->Deliver(msg->key, std::move(msg->payload), info);
}

void ChordNode::HandleRoute(std::unique_ptr<RouteMsg> msg) {
  const IdSpace& sp = space();
  const Key key = msg->key;
  if (msg->first_sent < 0) msg->first_sent = sim_->Now();
  if (msg->hops > ring_->config().max_route_hops) {
    ring_->metrics()->OnRouteDropped();
    FLOWER_LOG(Warn) << "dropping route to key " << key << " after "
                     << msg->hops << " hops";
    return;
  }

  NodeRef pred = predecessor();
  bool responsible;
  if (key == id_) {
    responsible = true;
  } else if (pred.valid()) {
    responsible = sp.InHalfOpenRight(key, pred.id, id_);
  } else {
    // No predecessor known: responsible only if we are alone.
    responsible = (successor().addr == address());
  }

  if (responsible) {
    if (AcceptDelivery(key)) {
      Deliver(std::move(msg));
      return;
    }
    NodeRef corr = CorrectionHop(key);
    if (corr.valid() && corr.addr != address()) {
      ++msg->hops;
      network_->Send(this, corr.addr, std::move(msg));
    } else {
      Deliver(std::move(msg));  // app handles the mismatch
    }
    return;
  }

  NodeRef succ = successor();
  NodeRef candidate;
  if (succ.valid() && succ.addr != address() &&
      sp.InHalfOpenRight(key, id_, succ.id)) {
    candidate = succ;
  } else {
    candidate = ClosestPreceding(key);
  }
  candidate = SelectNextHop(key, candidate);
  if (!candidate.valid() || candidate.addr == address()) {
    Deliver(std::move(msg));  // we are the closest node we know
    return;
  }
  ++msg->hops;
  network_->Send(this, candidate.addr, std::move(msg));
}

// --- Message handling ------------------------------------------------------------

void ChordNode::HandleMessage(MessagePtr msg) {
  if (msg->type() == MessageKind::kRoute) {
    HandleRoute(MessageCast<RouteMsg>(std::move(msg)));
    return;
  }
  FLOWER_LOG(Warn) << "chord node " << id_ << " got unknown message";
}

void ChordNode::HandleUndeliverable(PeerAddress dest, MessagePtr msg) {
  if (msg->type() == MessageKind::kRoute) {
    // Retry routing from here: the dead peer has already left the ring.
    auto route = MessageCast<RouteMsg>(std::move(msg));
    ++route->hops;
    HandleRoute(std::move(route));
    return;
  }
  Peer::HandleUndeliverable(dest, std::move(msg));
}

}  // namespace flower
