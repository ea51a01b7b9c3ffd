#include "gossip/flower_membership.h"

#include <algorithm>

namespace flower {

FlowerMembership::FlowerMembership(MembershipHost* host)
    : host_(host),
      view_(host->HostConfig().view_size,
            host->HostConfig().view_age_limit) {}

SimTime FlowerMembership::RoundPeriod() const {
  return host_->HostConfig().gossip_period;
}

void FlowerMembership::OnWelcomeContacts(
    const std::vector<ViewEntry>& contacts) {
  view_.Merge(contacts, std::nullopt, host_->HostAddress());
}

void FlowerMembership::OnViewSeed(const std::vector<ViewEntry>& entries) {
  view_.Merge(entries, std::nullopt, host_->HostAddress());
}

void FlowerMembership::PeriodicRound() {
  const SimConfig& cfg = host_->HostConfig();
  view_.IncrementAges();
  view_.DropOlderThan(cfg.view_age_limit);
  const ViewEntry* oldest = view_.SelectOldest();
  if (oldest == nullptr) return;
  auto req = std::make_unique<GossipRequestMsg>();
  req->own_summary = host_->HostSummary();
  req->view_subset =
      view_.SelectSubset(cfg.gossip_length, host_->HostRng(), oldest->addr);
  req->dir_pointer = host_->HostDirPointer();
  host_->HostSend(oldest->addr, std::move(req));
}

bool FlowerMembership::ConsumeMessage(MessagePtr& msg) {
  switch (msg->type()) {
    case MessageKind::kGossipRequest:
      HandleGossipRequest(MessageCast<GossipRequestMsg>(std::move(msg)));
      return true;
    case MessageKind::kGossipReply:
      HandleGossipReply(MessageCast<GossipReplyMsg>(std::move(msg)));
      return true;
    default:
      return false;
  }
}

void FlowerMembership::HandleGossipRequest(
    std::unique_ptr<GossipRequestMsg> req) {
  // Passive behavior: answer with our own summary + subset + dir pointer,
  // then merge what we received.
  auto reply = std::make_unique<GossipReplyMsg>();
  reply->own_summary = host_->HostSummary();
  reply->view_subset = view_.SelectSubset(host_->HostConfig().gossip_length,
                                          host_->HostRng(), req->sender);
  reply->dir_pointer = host_->HostDirPointer();
  host_->HostSend(req->sender, std::move(reply));

  ViewEntry fresh;
  fresh.addr = req->sender;
  fresh.age = 0;
  fresh.summary = req->own_summary;
  view_.Merge(req->view_subset, fresh, host_->HostAddress());
  host_->HostMergeDirPointer(req->dir_pointer);
}

void FlowerMembership::HandleGossipReply(
    std::unique_ptr<GossipReplyMsg> reply) {
  ViewEntry fresh;
  fresh.addr = reply->sender;
  fresh.age = 0;
  fresh.summary = reply->own_summary;
  view_.Merge(reply->view_subset, fresh, host_->HostAddress());
  host_->HostMergeDirPointer(reply->dir_pointer);
}

bool FlowerMembership::OnUndeliverable(PeerAddress dest, MessageKind kind) {
  if (kind == MessageKind::kGossipRequest ||
      kind == MessageKind::kGossipReply) {
    view_.Remove(dest);  // dead contact (Sec 5.4: treated like dead peers)
    return true;
  }
  return false;
}

void FlowerMembership::AppendHolderCandidates(
    ObjectId object, const std::vector<PeerAddress>& tried,
    std::vector<PeerAddress>* out) const {
  const PeerAddress self = host_->HostAddress();
  const BloomProbe probe(object);
  for (const ViewEntry& e : view_.entries()) {
    if (!e.summary || e.addr == self) continue;
    if (!e.summary->MaybeContains(probe)) continue;
    if (std::find(tried.begin(), tried.end(), e.addr) != tried.end()) {
      continue;
    }
    out->push_back(e.addr);
  }
}

void FlowerMembership::OnContactDead(PeerAddress addr) { view_.Remove(addr); }

std::vector<ViewEntry> FlowerMembership::NewClientSeed(PeerAddress client) {
  std::vector<ViewEntry> seed = view_.SelectSubset(
      host_->HostConfig().gossip_length, host_->HostRng(), client);
  ViewEntry self_entry;
  self_entry.addr = host_->HostAddress();
  self_entry.age = 0;
  self_entry.summary = host_->HostSummary();
  seed.push_back(self_entry);
  return seed;
}

View FlowerMembership::ExportView() const { return view_; }

Membership::Stats FlowerMembership::CollectStats() const {
  Stats s;
  s.active_size = view_.size();
  for (const ViewEntry& e : view_.entries()) {
    if (e.summary != nullptr) ++s.summaries_known;
  }
  return s;
}

}  // namespace flower
