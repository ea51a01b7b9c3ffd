#include "gossip/plumtree.h"

#include <algorithm>

namespace flower {

Plumtree::Plumtree(MembershipHost* host) : host_(host) {}

// --- Neighborhood -----------------------------------------------------------

void Plumtree::NeighborUp(PeerAddress peer) {
  if (peer == host_->HostAddress()) return;
  if (lazy_.count(peer) > 0 || eager_.count(peer) > 0) return;
  eager_.insert(peer);  // new neighbors start on the eager tree
}

void Plumtree::NeighborDown(PeerAddress peer) {
  eager_.erase(peer);
  lazy_.erase(peer);
  // Dead announcers are skipped when their timer fires; nothing to do
  // for missing_ here.
}

void Plumtree::ForgetOrigin(PeerAddress origin) {
  summaries_.erase(origin);
  for (auto it = missing_.begin(); it != missing_.end();) {
    if (it->first.first == origin) {
      it->second.timer.Cancel();
      it = missing_.erase(it);
    } else {
      ++it;
    }
  }
}

void Plumtree::MoveToLazy(PeerAddress peer) {
  if (eager_.erase(peer) > 0) lazy_.insert(peer);
}

void Plumtree::MoveToEager(PeerAddress peer) {
  if (lazy_.erase(peer) > 0) eager_.insert(peer);
}

// --- Broadcast --------------------------------------------------------------

void Plumtree::BroadcastOwnSummary(
    std::shared_ptr<const ContentSummary> summary) {
  ++own_version_;
  const PeerAddress self = host_->HostAddress();
  for (PeerAddress p : eager_) {
    host_->HostSend(p, std::make_unique<PtGossipMsg>(self, own_version_,
                                                     summary));
  }
  for (PeerAddress p : lazy_) {
    host_->HostSend(p, std::make_unique<PtIHaveMsg>(self, own_version_));
  }
}

void Plumtree::SeedSummary(PeerAddress origin,
                           std::shared_ptr<const ContentSummary> summary) {
  if (origin == host_->HostAddress() || summary == nullptr) return;
  OriginState& st = summaries_[origin];
  if (st.version > 0) return;  // a versioned broadcast wins over seeds
  st.summary = std::move(summary);
  st.touch = ++touch_seq_;
  CapSummaryCache();
}

bool Plumtree::Seen(PeerAddress origin, uint64_t version) const {
  auto it = summaries_.find(origin);
  return it != summaries_.end() && it->second.version >= version;
}

void Plumtree::CapSummaryCache() {
  const int cap = host_->HostConfig().plumtree_summary_capacity;
  if (cap <= 0) return;
  while (summaries_.size() > static_cast<size_t>(cap)) {
    auto victim = summaries_.begin();
    for (auto it = summaries_.begin(); it != summaries_.end(); ++it) {
      if (it->second.touch < victim->second.touch) victim = it;
    }
    summaries_.erase(victim);
  }
}

void Plumtree::DeliverAndRelay(
    PeerAddress origin, uint64_t version,
    std::shared_ptr<const ContentSummary> summary, PeerAddress relayer) {
  OriginState& st = summaries_[origin];
  st.version = version;
  st.summary = std::move(summary);
  st.touch = ++touch_seq_;
  CapSummaryCache();
  // Recovery for this or any older version of the origin is now moot.
  for (auto it = missing_.begin(); it != missing_.end();) {
    if (it->first.first == origin && it->first.second <= version) {
      it->second.timer.Cancel();
      it = missing_.erase(it);
    } else {
      ++it;
    }
  }
  auto cached = summaries_.find(origin);
  if (cached == summaries_.end()) return;  // evicted by its own insert
  for (PeerAddress p : eager_) {
    if (p == relayer || p == origin) continue;
    host_->HostSend(p, std::make_unique<PtGossipMsg>(origin, version,
                                                     cached->second.summary));
  }
  for (PeerAddress p : lazy_) {
    if (p == relayer || p == origin) continue;
    host_->HostSend(p, std::make_unique<PtIHaveMsg>(origin, version));
  }
}

// --- Message handling -------------------------------------------------------

bool Plumtree::ConsumeMessage(MessagePtr& msg) {
  switch (msg->type()) {
    case MessageKind::kPtGossip:
      HandleGossip(MessageCast<PtGossipMsg>(std::move(msg)));
      return true;
    case MessageKind::kPtIHave:
      HandleIHave(MessageCast<PtIHaveMsg>(std::move(msg)));
      return true;
    case MessageKind::kPtGraft:
      HandleGraft(MessageCast<PtGraftMsg>(std::move(msg)));
      return true;
    case MessageKind::kPtPrune:
      HandlePrune(msg->sender);
      return true;
    default:
      return false;
  }
}

void Plumtree::HandleGossip(std::unique_ptr<PtGossipMsg> msg) {
  if (msg->origin == host_->HostAddress()) return;
  if (Seen(msg->origin, msg->version)) {
    // Duplicate: the sender reaches us over a redundant tree edge.
    host_->HostMetrics()->OnPlumtreeDuplicate();
    host_->HostMetrics()->OnPlumtreePrune();
    MoveToLazy(msg->sender);
    host_->HostSend(msg->sender, std::make_unique<PtPruneMsg>());
    return;
  }
  if (msg->retransmit) {
    host_->HostMetrics()->OnPlumtreeLazyRecovery();
  } else {
    host_->HostMetrics()->OnPlumtreeEagerDelivery();
  }
  // A fresh message from a lazy neighbor means the eager tree was broken
  // here; pull the sender back onto it.
  MoveToEager(msg->sender);
  DeliverAndRelay(msg->origin, msg->version, std::move(msg->summary),
                  msg->sender);
}

void Plumtree::HandleIHave(std::unique_ptr<PtIHaveMsg> msg) {
  if (msg->origin == host_->HostAddress()) return;
  if (Seen(msg->origin, msg->version)) return;
  MessageId id{msg->origin, msg->version};
  MissingState& miss = missing_[id];
  miss.announcers.push_back(msg->sender);
  if (miss.announcers.size() == 1) ScheduleMissingTimer(id);
}

void Plumtree::ScheduleMissingTimer(const MessageId& id) {
  missing_[id].timer = host_->HostSim()->Schedule(
      host_->HostConfig().plumtree_ihave_timeout,
      [this, id]() { OnMissingTimer(id); });
}

void Plumtree::OnMissingTimer(MessageId id) {
  auto it = missing_.find(id);
  if (it == missing_.end()) return;
  if (Seen(id.first, id.second)) {
    missing_.erase(it);
    return;
  }
  // GRAFT the first announcer still in the neighborhood back into the
  // eager tree and ask it to retransmit; keep a timer armed while other
  // announcers remain, in case this one is gone too.
  while (!it->second.announcers.empty()) {
    PeerAddress announcer = it->second.announcers.front();
    it->second.announcers.pop_front();
    if (eager_.count(announcer) == 0 && lazy_.count(announcer) == 0) {
      continue;
    }
    MoveToEager(announcer);
    host_->HostMetrics()->OnPlumtreeGraft();
    host_->HostSend(announcer,
                    std::make_unique<PtGraftMsg>(id.first, id.second));
    if (it->second.announcers.empty()) {
      missing_.erase(it);
    } else {
      ScheduleMissingTimer(id);
    }
    return;
  }
  missing_.erase(it);
}

void Plumtree::HandleGraft(std::unique_ptr<PtGraftMsg> msg) {
  MoveToEager(msg->sender);
  auto it = summaries_.find(msg->origin);
  std::shared_ptr<const ContentSummary> summary;
  uint64_t version = 0;
  if (msg->origin == host_->HostAddress()) {
    summary = host_->HostSummary();
    version = own_version_;
  } else if (it != summaries_.end() && it->second.version >= msg->version) {
    summary = it->second.summary;
    version = it->second.version;
  }
  if (summary == nullptr || version == 0) return;
  auto reply = std::make_unique<PtGossipMsg>(msg->origin, version, summary);
  reply->retransmit = true;
  host_->HostSend(msg->sender, std::move(reply));
}

void Plumtree::HandlePrune(PeerAddress sender) { MoveToLazy(sender); }

// --- Query support / introspection ------------------------------------------

void Plumtree::AppendHolderCandidates(
    ObjectId object, const std::vector<PeerAddress>& tried,
    std::vector<PeerAddress>* out) const {
  const PeerAddress self = host_->HostAddress();
  const BloomProbe probe(object);
  for (const auto& [addr, st] : summaries_) {
    if (!st.summary || addr == self) continue;
    if (!st.summary->MaybeContains(probe)) continue;
    if (std::find(tried.begin(), tried.end(), addr) != tried.end()) {
      continue;
    }
    out->push_back(addr);
  }
}

void Plumtree::AppendCachedVersions(
    std::vector<std::pair<PeerAddress, uint64_t>>* out) const {
  for (const auto& [addr, st] : summaries_) {
    if (st.version > 0) out->emplace_back(addr, st.version);
  }
}

View Plumtree::ExportView(int capacity, int max_age) const {
  View v(capacity, max_age);
  for (const auto& [addr, st] : summaries_) {
    ViewEntry e;
    e.addr = addr;
    e.age = 0;
    e.summary = st.summary;
    v.Insert(e, host_->HostAddress());
  }
  return v;
}

void Plumtree::Stop() {
  for (auto& [id, miss] : missing_) miss.timer.Cancel();
  missing_.clear();
}

}  // namespace flower
