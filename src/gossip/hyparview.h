// HyParView ("Hybrid Partial View", Leitão et al.) membership: a small
// symmetric active view carrying the overlay's protocol traffic plus a
// larger passive view of fallback contacts, maintained by JOIN /
// FORWARD-JOIN random walks, periodic SHUFFLEs, and reactive promotion of
// passive contacts when an active neighbor fails. Content summaries are
// disseminated over the active view by a Plumtree broadcast tree
// (plumtree.h) instead of flower's full-view piggybacking, so per-peer
// membership state and background traffic stay near-constant as the
// locality grows.
#ifndef FLOWERCDN_GOSSIP_HYPARVIEW_H_
#define FLOWERCDN_GOSSIP_HYPARVIEW_H_

#include <memory>
#include <vector>

#include "gossip/gossip_messages.h"
#include "gossip/membership.h"
#include "gossip/plumtree.h"

namespace flower {

class HyParViewMembership : public Membership {
 public:
  explicit HyParViewMembership(MembershipHost* host);

  const char* protocol() const override { return "hyparview"; }
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
  Stats CollectStats() const override;
  void Stop() override;

  // --- Test introspection -------------------------------------------------
  const std::vector<PeerAddress>& active_view() const { return active_; }
  const std::vector<PeerAddress>& passive_view() const { return passive_; }
  const Plumtree& plumtree() const { return plumtree_; }

 private:
  // Random-walk TTLs (paper's ARWL/PRWL).
  static constexpr int kActiveWalkLength = 6;
  static constexpr int kPassiveWalkLength = 3;
  // Shuffle sample composition (besides the origin itself).
  static constexpr int kShuffleActive = 3;
  static constexpr int kShufflePassive = 4;

  bool InActive(PeerAddress p) const;
  bool InPassive(PeerAddress p) const;
  /// Adds to the active view (evicting a random member to passive when
  /// full, with a DISCONNECT notice). No-op for self or present members.
  void AddActive(PeerAddress p);
  void AddPassive(PeerAddress p);
  void RemoveActive(PeerAddress p);
  /// Contact failure: drop everywhere and reactively promote a passive
  /// contact into the active view.
  void OnPeerFailure(PeerAddress p);
  /// Promotes a random passive contact (NEIGHBOR request); high priority
  /// when the active view is empty.
  void PromotePassive();
  PeerAddress RandomActive(PeerAddress exclude) const;

  void HandleJoin(PeerAddress joiner);
  void HandleForwardJoin(std::unique_ptr<HpvForwardJoinMsg> msg);
  void HandleNeighbor(PeerAddress from, bool high_priority);
  void HandleNeighborReject(PeerAddress from);
  void HandleDisconnect(PeerAddress from);
  void HandleShuffle(std::unique_ptr<HpvShuffleMsg> msg);
  void HandleShuffleReply(const HpvShuffleReplyMsg& msg);
  void DoShuffle();
  void MaybeBroadcastSummary();

  MembershipHost* host_;
  // Sorted vectors: deterministic iteration + cheap random sampling.
  std::vector<PeerAddress> active_;
  std::vector<PeerAddress> passive_;
  Plumtree plumtree_;
  std::shared_ptr<const ContentSummary> last_broadcast_;
  uint64_t changes_at_broadcast_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_GOSSIP_HYPARVIEW_H_
