#include "gossip/hyparview.h"

#include <algorithm>

namespace flower {

namespace {

void SortedInsert(std::vector<PeerAddress>* v, PeerAddress p) {
  auto it = std::lower_bound(v->begin(), v->end(), p);
  if (it == v->end() || *it != p) v->insert(it, p);
}

bool SortedErase(std::vector<PeerAddress>* v, PeerAddress p) {
  auto it = std::lower_bound(v->begin(), v->end(), p);
  if (it == v->end() || *it != p) return false;
  v->erase(it);
  return true;
}

}  // namespace

HyParViewMembership::HyParViewMembership(MembershipHost* host)
    : host_(host), plumtree_(host) {}

SimTime HyParViewMembership::RoundPeriod() const {
  const SimConfig& cfg = host_->HostConfig();
  return cfg.hyparview_shuffle_period > 0 ? cfg.hyparview_shuffle_period
                                          : cfg.gossip_period;
}

bool HyParViewMembership::InActive(PeerAddress p) const {
  return std::binary_search(active_.begin(), active_.end(), p);
}

bool HyParViewMembership::InPassive(PeerAddress p) const {
  return std::binary_search(passive_.begin(), passive_.end(), p);
}

void HyParViewMembership::AddActive(PeerAddress p) {
  if (p == host_->HostAddress() || InActive(p)) return;
  const int cap = std::max(1, host_->HostConfig().hyparview_active_size);
  if (active_.size() >= static_cast<size_t>(cap)) {
    PeerAddress victim = active_[host_->HostRng()->Index(active_.size())];
    RemoveActive(victim);
    host_->HostSend(victim, std::make_unique<HpvDisconnectMsg>());
    AddPassive(victim);
  }
  SortedErase(&passive_, p);
  SortedInsert(&active_, p);
  plumtree_.NeighborUp(p);
}

void HyParViewMembership::AddPassive(PeerAddress p) {
  if (p == host_->HostAddress() || InActive(p) || InPassive(p)) return;
  const int cap = std::max(1, host_->HostConfig().hyparview_passive_size);
  if (passive_.size() >= static_cast<size_t>(cap)) {
    size_t victim = host_->HostRng()->Index(passive_.size());
    passive_.erase(passive_.begin() + static_cast<long>(victim));
  }
  SortedInsert(&passive_, p);
}

void HyParViewMembership::RemoveActive(PeerAddress p) {
  if (SortedErase(&active_, p)) plumtree_.NeighborDown(p);
}

PeerAddress HyParViewMembership::RandomActive(PeerAddress exclude) const {
  std::vector<PeerAddress> pool;
  pool.reserve(active_.size());
  for (PeerAddress p : active_) {
    if (p != exclude) pool.push_back(p);
  }
  if (pool.empty()) return kInvalidAddress;
  return pool[host_->HostRng()->Index(pool.size())];
}

void HyParViewMembership::OnPeerFailure(PeerAddress p) {
  const bool was_active = InActive(p);
  RemoveActive(p);
  SortedErase(&passive_, p);
  plumtree_.NeighborDown(p);
  plumtree_.ForgetOrigin(p);
  if (was_active) PromotePassive();
}

void HyParViewMembership::PromotePassive() {
  if (passive_.empty()) return;
  const bool high = active_.empty();
  PeerAddress q = passive_[host_->HostRng()->Index(passive_.size())];
  SortedErase(&passive_, q);
  AddActive(q);
  host_->HostSend(q, std::make_unique<HpvNeighborMsg>(high));
}

// --- Lifecycle --------------------------------------------------------------

void HyParViewMembership::OnWelcomeContacts(
    const std::vector<ViewEntry>& contacts) {
  const PeerAddress self = host_->HostAddress();
  std::vector<PeerAddress> fresh;
  for (const ViewEntry& e : contacts) {
    if (e.addr == self) continue;
    AddPassive(e.addr);
    if (e.summary != nullptr) plumtree_.SeedSummary(e.addr, e.summary);
    fresh.push_back(e.addr);
  }
  if (active_.empty() && !fresh.empty()) {
    // JOIN through one contact; its FORWARD-JOIN walks populate the rest
    // of our neighborhood.
    PeerAddress contact = fresh[host_->HostRng()->Index(fresh.size())];
    AddActive(contact);
    host_->HostSend(contact, std::make_unique<HpvJoinMsg>());
  }
}

void HyParViewMembership::OnViewSeed(const std::vector<ViewEntry>& entries) {
  for (const ViewEntry& e : entries) {
    if (e.addr == host_->HostAddress()) continue;
    AddPassive(e.addr);
    if (e.summary != nullptr) plumtree_.SeedSummary(e.addr, e.summary);
  }
  if (active_.empty()) PromotePassive();
}

void HyParViewMembership::PeriodicRound() {
  MaybeBroadcastSummary();
  if (active_.empty()) PromotePassive();
  DoShuffle();
}

void HyParViewMembership::MaybeBroadcastSummary() {
  if (last_broadcast_ != nullptr) {
    // Rebroadcast only once enough of the cache changed (mirrors
    // push_threshold): an established peer's summary flood goes quiet in
    // steady state, a fresh joiner crosses the threshold on nearly every
    // fetch and becomes visible to the overlay fast.
    const uint64_t changed = host_->HostContentChanges() -
                             changes_at_broadcast_;
    if (changed == 0) return;
    const size_t size = host_->HostContentSize();
    const double frac = static_cast<double>(changed) /
                        static_cast<double>(size > 0 ? size : 1);
    if (frac < host_->HostConfig().plumtree_broadcast_threshold) return;
  }
  std::shared_ptr<const ContentSummary> s = host_->HostSummary();
  if (s == last_broadcast_) return;
  changes_at_broadcast_ = host_->HostContentChanges();
  plumtree_.BroadcastOwnSummary(s);
  last_broadcast_ = std::move(s);
}

void HyParViewMembership::DoShuffle() {
  if (active_.empty()) return;
  PeerAddress target = RandomActive(kInvalidAddress);
  if (target == kInvalidAddress) return;
  auto shuffle = std::make_unique<HpvShuffleMsg>(host_->HostAddress(),
                                                 kPassiveWalkLength);
  std::vector<PeerAddress> from_active;
  for (PeerAddress p : active_) {
    if (p != target) from_active.push_back(p);
  }
  for (size_t idx : host_->HostRng()->SampleIndices(
           from_active.size(), kShuffleActive)) {
    shuffle->sample.push_back(from_active[idx]);
  }
  for (size_t idx :
       host_->HostRng()->SampleIndices(passive_.size(), kShufflePassive)) {
    shuffle->sample.push_back(passive_[idx]);
  }
  host_->HostMetrics()->OnHyParViewShuffle();
  host_->HostSend(target, std::move(shuffle));
}

// --- Message handling -------------------------------------------------------

bool HyParViewMembership::ConsumeMessage(MessagePtr& msg) {
  const PeerAddress from = msg->sender;
  switch (msg->type()) {
    case MessageKind::kHpvJoin:
      HandleJoin(from);
      return true;
    case MessageKind::kHpvForwardJoin:
      HandleForwardJoin(MessageCast<HpvForwardJoinMsg>(std::move(msg)));
      return true;
    case MessageKind::kHpvNeighbor:
      HandleNeighbor(
          from, MessageCast<HpvNeighborMsg>(std::move(msg))->high_priority);
      return true;
    case MessageKind::kHpvNeighborReject:
      HandleNeighborReject(from);
      return true;
    case MessageKind::kHpvDisconnect:
      HandleDisconnect(from);
      return true;
    case MessageKind::kHpvShuffle:
      HandleShuffle(MessageCast<HpvShuffleMsg>(std::move(msg)));
      return true;
    case MessageKind::kHpvShuffleReply:
      HandleShuffleReply(*MessageCast<HpvShuffleReplyMsg>(std::move(msg)));
      return true;
    default:
      return plumtree_.ConsumeMessage(msg);
  }
}

void HyParViewMembership::HandleJoin(PeerAddress joiner) {
  if (joiner == kInvalidAddress || joiner == host_->HostAddress()) return;
  std::vector<PeerAddress> walk_targets;
  for (PeerAddress n : active_) {
    if (n != joiner) walk_targets.push_back(n);
  }
  AddActive(joiner);
  for (PeerAddress n : walk_targets) {
    host_->HostSend(
        n, std::make_unique<HpvForwardJoinMsg>(joiner, kActiveWalkLength));
  }
}

void HyParViewMembership::HandleForwardJoin(
    std::unique_ptr<HpvForwardJoinMsg> msg) {
  const PeerAddress j = msg->new_node;
  if (j == host_->HostAddress()) return;
  if (msg->ttl <= 0 || active_.size() <= 1) {
    AddActive(j);
    host_->HostSend(j, std::make_unique<HpvNeighborMsg>(true));
    return;
  }
  if (msg->ttl == kPassiveWalkLength) AddPassive(j);
  PeerAddress next = RandomActive(msg->sender);
  if (next == kInvalidAddress || next == j) {
    AddActive(j);
    host_->HostSend(j, std::make_unique<HpvNeighborMsg>(true));
    return;
  }
  --msg->ttl;
  host_->HostSend(next, std::move(msg));
}

void HyParViewMembership::HandleNeighbor(PeerAddress from,
                                         bool high_priority) {
  const int cap = std::max(1, host_->HostConfig().hyparview_active_size);
  if (!high_priority && active_.size() >= static_cast<size_t>(cap)) {
    AddPassive(from);
    host_->HostSend(from, std::make_unique<HpvNeighborRejectMsg>());
    return;
  }
  AddActive(from);
}

void HyParViewMembership::HandleNeighborReject(PeerAddress from) {
  RemoveActive(from);
  AddPassive(from);
  PromotePassive();  // try another passive contact
}

void HyParViewMembership::HandleDisconnect(PeerAddress from) {
  if (!InActive(from)) return;
  RemoveActive(from);
  AddPassive(from);
  if (active_.empty()) PromotePassive();
}

void HyParViewMembership::HandleShuffle(std::unique_ptr<HpvShuffleMsg> msg) {
  if (msg->origin == host_->HostAddress()) return;
  --msg->ttl;
  if (msg->ttl > 0 && active_.size() > 1) {
    PeerAddress next = RandomActive(msg->sender);
    if (next != kInvalidAddress && next != msg->origin) {
      host_->HostSend(next, std::move(msg));
      return;
    }
  }
  // Accept: answer the origin with a passive sample of equal size, then
  // integrate the received sample.
  auto reply = std::make_unique<HpvShuffleReplyMsg>();
  for (size_t idx : host_->HostRng()->SampleIndices(
           passive_.size(), msg->sample.size())) {
    reply->sample.push_back(passive_[idx]);
  }
  host_->HostSend(msg->origin, std::move(reply));
  for (PeerAddress p : msg->sample) AddPassive(p);
  AddPassive(msg->origin);
}

void HyParViewMembership::HandleShuffleReply(const HpvShuffleReplyMsg& msg) {
  for (PeerAddress p : msg.sample) AddPassive(p);
}

bool HyParViewMembership::OnUndeliverable(PeerAddress dest,
                                          MessageKind kind) {
  if (!IsHyParViewKind(kind)) return false;
  OnPeerFailure(dest);
  return true;
}

// --- Query support / introspection ------------------------------------------

void HyParViewMembership::AppendHolderCandidates(
    ObjectId object, const std::vector<PeerAddress>& tried,
    std::vector<PeerAddress>* out) const {
  plumtree_.AppendHolderCandidates(object, tried, out);
}

void HyParViewMembership::OnContactDead(PeerAddress addr) {
  OnPeerFailure(addr);
}

std::vector<ViewEntry> HyParViewMembership::NewClientSeed(
    PeerAddress client) {
  (void)client;
  // The joiner learns contacts through JOIN walks; seed it with our own
  // summary only, so it can query us peer-direct right away.
  ViewEntry self_entry;
  self_entry.addr = host_->HostAddress();
  self_entry.age = 0;
  self_entry.summary = host_->HostSummary();
  return {self_entry};
}

View HyParViewMembership::ExportView() const {
  const SimConfig& cfg = host_->HostConfig();
  return plumtree_.ExportView(cfg.view_size, cfg.view_age_limit);
}

Membership::Stats HyParViewMembership::CollectStats() const {
  Stats s;
  s.active_size = active_.size();
  s.passive_size = passive_.size();
  s.summaries_known = plumtree_.summaries_known();
  s.own_version = plumtree_.own_version();
  plumtree_.AppendCachedVersions(&s.cached_versions);
  return s;
}

void HyParViewMembership::Stop() { plumtree_.Stop(); }

}  // namespace flower
