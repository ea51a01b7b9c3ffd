#include "dht/chord_node.h"

#include <cassert>

#include "common/logging.h"
#include "dht/chord_ring.h"

namespace flower {

ChordNode::ChordNode(Simulator* sim, Network* network, ChordRing* ring,
                     Key id)
    : sim_(sim), network_(network), ring_(ring), id_(ring->space().Clamp(id)) {
  assert(sim != nullptr && network != nullptr && ring != nullptr);
  fingers_.assign(static_cast<size_t>(ring->space().bits()), NodeRef{});
}

ChordNode::~ChordNode() {
  stabilize_timer_.Cancel();
  fix_fingers_timer_.Cancel();
  check_pred_timer_.Cancel();
}

const IdSpace& ChordNode::space() const { return ring_->space(); }

void ChordNode::Activate(NodeId node) { network_->RegisterPeer(this, node); }

bool ChordNode::JoinStructural() {
  assert(address() != kInvalidAddress && "Activate() before joining");
  if (!ring_->Insert(this)) return false;
  joined_ = true;
  return true;
}

void ChordNode::JoinViaProtocol(PeerAddress bootstrap,
                                std::function<void()> on_joined) {
  assert(address() != kInvalidAddress && "Activate() before joining");
  assert(!ring_->oracle() && "protocol join requires protocol mode");
  on_joined_ = std::move(on_joined);
  predecessor_ = NodeRef{};
  uint64_t rid = next_request_id_++;
  pending_finds_[rid] = [this](NodeRef succ) {
    successors_.assign(1, succ);
    joined_ = true;
    ring_->Insert(this);  // membership bookkeeping only
    StartMaintenance();
    if (on_joined_) on_joined_();
  };
  auto req = std::make_unique<FindSuccessorReq>(id_, address(), rid);
  network_->Send(this, bootstrap, std::move(req));
}

void ChordNode::StartMaintenance() {
  if (ring_->oracle()) return;
  const ChordConfig& cfg = ring_->config();
  if (!stabilize_timer_.active()) {
    stabilize_timer_ = sim_->SchedulePeriodic(cfg.stabilize_period,
                                              cfg.stabilize_period,
                                              [this]() { Stabilize(); });
  }
  if (!fix_fingers_timer_.active()) {
    fix_fingers_timer_ = sim_->SchedulePeriodic(cfg.fix_fingers_period,
                                                cfg.fix_fingers_period,
                                                [this]() { FixNextFinger(); });
  }
  if (!check_pred_timer_.active()) {
    check_pred_timer_ = sim_->SchedulePeriodic(
        cfg.check_predecessor_period, cfg.check_predecessor_period,
        [this]() { CheckPredecessor(); });
  }
}

void ChordNode::Leave() {
  // Graceful leave: in protocol mode, stabilization of the neighbors repairs
  // the ring; a courteous node tells its successor about its predecessor.
  if (!ring_->oracle() && joined_) {
    NodeRef succ = successor();
    if (succ.valid() && predecessor_.valid() && succ.addr != address()) {
      network_->Send(this, succ.addr,
                     std::make_unique<NotifyMsg>(predecessor_));
    }
  }
  Fail();
}

void ChordNode::Fail() {
  stabilize_timer_.Cancel();
  fix_fingers_timer_.Cancel();
  check_pred_timer_.Cancel();
  ring_->Remove(this);
  joined_ = false;
  network_->UnregisterPeer(this);
}

// --- Neighbor reads ----------------------------------------------------------

NodeRef ChordNode::successor() const {
  if (ring_->oracle()) {
    ChordNode* s = ring_->SuccessorOf(space().Add(id_, 1));
    return s == nullptr ? self_ref() : s->self_ref();
  }
  for (const NodeRef& r : successors_) {
    if (r.valid()) return r;
  }
  return self_ref();
}

NodeRef ChordNode::predecessor() const {
  if (ring_->oracle()) {
    ChordNode* p = ring_->PredecessorOf(id_);
    return p == nullptr ? NodeRef{} : p->self_ref();
  }
  return predecessor_;
}

std::vector<NodeRef> ChordNode::SuccessorList() const {
  if (!ring_->oracle()) return successors_;
  std::vector<NodeRef> out;
  Key from = space().Add(id_, 1);
  int want = ring_->config().successor_list_size;
  for (int i = 0; i < want; ++i) {
    ChordNode* s = ring_->SuccessorOf(from);
    if (s == nullptr || s == this) break;
    out.push_back(s->self_ref());
    if (out.size() >= ring_->size() - 1) break;
    from = space().Add(s->id(), 1);
  }
  return out;
}

NodeRef ChordNode::OracleFinger(int i) const {
  Key start = space().Add(id_, 1ULL << i);
  ChordNode* s = ring_->SuccessorOf(start);
  return s == nullptr ? NodeRef{} : s->self_ref();
}

NodeRef ChordNode::finger(int i) const {
  assert(i >= 0 && i < space().bits());
  if (ring_->oracle()) return OracleFinger(i);
  return fingers_[static_cast<size_t>(i)];
}

std::vector<NodeRef> ChordNode::KnownPeers() const {
  std::vector<NodeRef> out;
  auto push_unique = [&out](const NodeRef& r) {
    if (!r.valid()) return;
    for (const NodeRef& e : out) {
      if (e.addr == r.addr) return;
    }
    out.push_back(r);
  };
  if (ring_->oracle()) {
    for (int i = 0; i < space().bits(); ++i) push_unique(OracleFinger(i));
  } else {
    for (const NodeRef& f : fingers_) push_unique(f);
    for (const NodeRef& s : successors_) push_unique(s);
  }
  push_unique(predecessor());
  push_unique(successor());
  return out;
}

// --- Routing -----------------------------------------------------------------

NodeRef ChordNode::ClosestPreceding(Key key) const {
  // Highest finger in (id_, key); successor-list entries also considered,
  // per common Chord practice.
  const IdSpace& sp = space();
  NodeRef best;
  Key best_dist = 0;  // clockwise distance from id_; larger = closer to key
  auto consider = [&](const NodeRef& r) {
    if (!r.valid() || r.addr == address()) return;
    if (!sp.InOpenInterval(r.id, id_, key)) return;
    Key d = sp.ClockwiseDistance(id_, r.id);
    if (!best.valid() || d > best_dist) {
      best = r;
      best_dist = d;
    }
  };
  if (ring_->oracle()) {
    // Scan emulated fingers from the top; the first valid one in range is
    // the greediest, but cheaper: compute only until one lands in range.
    for (int i = space().bits() - 1; i >= 0; --i) {
      Key start = sp.Add(id_, 1ULL << i);
      if (!sp.InHalfOpenRight(start, id_, key)) continue;
      NodeRef f = OracleFinger(i);
      consider(f);
      if (best.valid()) break;
    }
  } else {
    for (int i = space().bits() - 1; i >= 0; --i) {
      consider(fingers_[static_cast<size_t>(i)]);
      if (best.valid()) break;
    }
    for (const NodeRef& s : successors_) consider(s);
  }
  if (!best.valid()) return successor();
  return best;
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
    ++routes_dropped_;
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

// --- find_successor protocol ---------------------------------------------------

void ChordNode::FindSuccessor(Key target, std::function<void(NodeRef)> cb) {
  uint64_t rid = next_request_id_++;
  pending_finds_[rid] = std::move(cb);
  auto req = std::make_unique<FindSuccessorReq>(space().Clamp(target),
                                                address(), rid);
  // Process locally: we may already know the answer.
  HandleFindSuccessor(std::move(req));
}

void ChordNode::HandleFindSuccessor(std::unique_ptr<FindSuccessorReq> req) {
  const IdSpace& sp = space();
  NodeRef succ = successor();
  NodeRef answer;
  if (succ.addr == address()) {
    answer = self_ref();  // alone on the ring
  } else if (sp.InHalfOpenRight(req->target, id_, succ.id)) {
    answer = succ;
  }
  if (answer.valid()) {
    auto resp =
        std::make_unique<FindSuccessorResp>(req->target, answer,
                                            req->request_id);
    if (req->requester == address()) {
      // Local request resolved locally.
      auto it = pending_finds_.find(req->request_id);
      if (it != pending_finds_.end()) {
        auto cb = std::move(it->second);
        pending_finds_.erase(it);
        cb(answer);
      }
    } else {
      network_->Send(this, req->requester, std::move(resp));
    }
    return;
  }
  NodeRef next = ClosestPreceding(req->target);
  if (!next.valid() || next.addr == address()) {
    // Cannot make progress; answer with our successor as best effort.
    NodeRef fallback = succ.valid() ? succ : self_ref();
    if (req->requester == address()) {
      auto it = pending_finds_.find(req->request_id);
      if (it != pending_finds_.end()) {
        auto cb = std::move(it->second);
        pending_finds_.erase(it);
        cb(fallback);
      }
    } else {
      network_->Send(this, req->requester,
                     std::make_unique<FindSuccessorResp>(
                         req->target, fallback, req->request_id));
    }
    return;
  }
  ++req->hops;
  network_->Send(this, next.addr, std::move(req));
}

// --- Stabilization -------------------------------------------------------------

void ChordNode::Stabilize() {
  NodeRef succ = successor();
  if (!succ.valid() || succ.addr == address()) return;
  network_->Send(this, succ.addr, std::make_unique<GetNeighborsReq>());
}

void ChordNode::AdoptSuccessor(NodeRef candidate) {
  if (!candidate.valid()) return;
  NodeRef succ = successor();
  if (!succ.valid() || succ.addr == address() ||
      space().InOpenInterval(candidate.id, id_, succ.id)) {
    successors_.insert(successors_.begin(), candidate);
    if (static_cast<int>(successors_.size()) >
        ring_->config().successor_list_size) {
      successors_.resize(
          static_cast<size_t>(ring_->config().successor_list_size));
    }
  }
}

void ChordNode::FixNextFinger() {
  int m = space().bits();
  if (m == 0) return;
  int i = next_finger_;
  next_finger_ = (next_finger_ + 1) % m;
  Key start = space().Add(id_, 1ULL << i);
  FindSuccessor(start, [this, i](NodeRef result) {
    fingers_[static_cast<size_t>(i)] = result;
  });
}

void ChordNode::CheckPredecessor() {
  if (!predecessor_.valid()) return;
  network_->Send(this, predecessor_.addr, std::make_unique<PingReq>());
}

void ChordNode::RemoveDeadRef(PeerAddress addr) {
  if (predecessor_.valid() && predecessor_.addr == addr) {
    predecessor_ = NodeRef{};
  }
  for (auto& f : fingers_) {
    if (f.valid() && f.addr == addr) f = NodeRef{};
  }
  for (size_t i = 0; i < successors_.size();) {
    if (successors_[i].valid() && successors_[i].addr == addr) {
      successors_.erase(successors_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

// --- Message handling ------------------------------------------------------------

void ChordNode::HandleMessage(MessagePtr msg) {
  const PeerAddress from = msg->sender;
  switch (msg->type()) {
    case MessageKind::kRoute:
      HandleRoute(MessageCast<RouteMsg>(std::move(msg)));
      return;
    case MessageKind::kFindSuccessorReq:
      HandleFindSuccessor(MessageCast<FindSuccessorReq>(std::move(msg)));
      return;
    case MessageKind::kFindSuccessorResp: {
      auto resp = MessageCast<FindSuccessorResp>(std::move(msg));
      auto it = pending_finds_.find(resp->request_id);
      if (it != pending_finds_.end()) {
        auto cb = std::move(it->second);
        pending_finds_.erase(it);
        cb(resp->result);
      }
      return;
    }
    case MessageKind::kGetNeighborsReq: {
      auto resp = std::make_unique<GetNeighborsResp>();
      resp->predecessor = predecessor_;
      resp->successors = SuccessorList();
      network_->Send(this, from, std::move(resp));
      return;
    }
    case MessageKind::kGetNeighborsResp: {
      // stabilize() continuation: maybe adopt successor's predecessor, then
      // refresh the successor list and notify.
      auto resp = MessageCast<GetNeighborsResp>(std::move(msg));
      AdoptSuccessor(resp->predecessor);
      NodeRef succ = successor();
      if (succ.valid() && succ.addr == from) {
        std::vector<NodeRef> list;
        list.push_back(succ);
        for (const NodeRef& r : resp->successors) {
          if (static_cast<int>(list.size()) >=
              ring_->config().successor_list_size) {
            break;
          }
          if (r.valid() && r.addr != address()) list.push_back(r);
        }
        successors_ = std::move(list);
      }
      if (succ.valid() && succ.addr != address()) {
        network_->Send(this, succ.addr,
                       std::make_unique<NotifyMsg>(self_ref()));
      }
      return;
    }
    case MessageKind::kNotify: {
      const NodeRef self = MessageCast<NotifyMsg>(std::move(msg))->self;
      if (!predecessor_.valid() ||
          space().InOpenInterval(self.id, predecessor_.id, id_)) {
        predecessor_ = self;
      }
      // A node that was alone on the ring adopts its first contact as
      // successor; stabilization cannot do it (it has nobody to ask).
      if (successor().addr == address()) AdoptSuccessor(self);
      return;
    }
    case MessageKind::kPingReq:
      network_->Send(this, from, std::make_unique<PingResp>());
      return;
    case MessageKind::kPingResp:
      return;  // predecessor alive; nothing to do
    default:
      FLOWER_LOG(Warn) << "chord node " << id_ << " got unknown message";
  }
}

void ChordNode::HandleUndeliverable(PeerAddress dest, MessagePtr msg) {
  RemoveDeadRef(dest);
  switch (msg->type()) {
    case MessageKind::kRoute: {
      // Retry routing from here with the dead peer expunged.
      auto route = MessageCast<RouteMsg>(std::move(msg));
      ++route->hops;
      HandleRoute(std::move(route));
      return;
    }
    case MessageKind::kFindSuccessorReq: {
      auto req = MessageCast<FindSuccessorReq>(std::move(msg));
      ++req->hops;
      HandleFindSuccessor(std::move(req));
      return;
    }
    default:
      // Other bounces (stabilization chatter to a dead peer) are dropped by
      // design — RemoveDeadRef above already expunged the peer; the base
      // logs the drop in debug builds.
      Peer::HandleUndeliverable(dest, std::move(msg));
  }
}

}  // namespace flower
