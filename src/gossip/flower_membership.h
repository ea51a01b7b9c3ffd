// The paper's gossip protocol (Algorithm 4) behind the Membership
// interface: one full age-based View per peer, active exchanges with the
// oldest contact, summaries piggybacked on every request/reply.
//
// This is the extraction of the pre-subsystem ContentPeer gossip code.
// Statement order and RNG draws are preserved exactly: a
// `gossip_protocol=flower` run is byte-identical to pre-refactor builds.
#ifndef FLOWERCDN_GOSSIP_FLOWER_MEMBERSHIP_H_
#define FLOWERCDN_GOSSIP_FLOWER_MEMBERSHIP_H_

#include <memory>
#include <vector>

#include "gossip/membership.h"

namespace flower {

class FlowerMembership : public Membership {
 public:
  explicit FlowerMembership(MembershipHost* host);

  const char* protocol() const override { return "flower"; }
  SimTime RoundPeriod() const override;
  void OnWelcomeContacts(const std::vector<ViewEntry>& contacts) override;
  void OnViewSeed(const std::vector<ViewEntry>& entries) override;
  void PeriodicRound() override;
  bool ConsumeMessage(MessagePtr& msg) override;
  bool OnUndeliverable(PeerAddress dest, MessageKind kind) override;
  void AppendHolderCandidates(ObjectId object,
                              const std::vector<PeerAddress>& tried,
                              std::vector<PeerAddress>* out) const override;
  void OnContactDead(PeerAddress addr) override;
  std::vector<ViewEntry> NewClientSeed(PeerAddress client) override;
  View ExportView() const override;
  const View* DebugView() const override { return &view_; }
  Stats CollectStats() const override;

 private:
  void HandleGossipRequest(std::unique_ptr<GossipRequestMsg> req);
  void HandleGossipReply(std::unique_ptr<GossipReplyMsg> reply);

  MembershipHost* host_;
  View view_;
};

}  // namespace flower

#endif  // FLOWERCDN_GOSSIP_FLOWER_MEMBERSHIP_H_
