// A participant peer of one content overlay (paper Sec 4).
//
// A ContentPeer starts life as a plain *client*: its queries go through the
// D-ring (Sec 3.4). Once the directory peer admits it (WelcomeMsg), it is a
// *content peer* c(ws,loc): it keeps every object it retrieves, gossips
// membership + content summaries inside its overlay (Algorithm 4), pushes
// content deltas to its directory peer (Algorithm 5), sends keepalives
// (Sec 5.1), and resolves its own queries locally:
//   own cache -> view summaries -> directory peer.
// On directory failure it races to replace it (Sec 5.2).
//
// "Keeps every object" is the default. Under `cache_policy=lru` with a
// finite `cache_capacity_bytes` the peer's ContentStore evicts its least
// recently used objects, and the evictions ride the next push as
// removals.
#ifndef FLOWERCDN_CORE_CONTENT_PEER_H_
#define FLOWERCDN_CORE_CONTENT_PEER_H_

#include <map>
#include <memory>
#include <vector>

#include "cache/content_store.h"
#include "common/rng.h"
#include "core/flower_context.h"
#include "core/flower_messages.h"
#include "gossip/view.h"
#include "net/network.h"

namespace flower {

class ContentPeer : public Peer {
 public:
  ContentPeer(FlowerContext* ctx, const Website* site, LocalityId locality,
              uint64_t rng_seed);

  void Activate(NodeId node);

  /// Workload entry point: this peer wants object `object` of its website.
  void RequestObject(ObjectId object);

  /// Graceful departure: goodbye to the directory, off the network.
  void Leave();

  /// Crash without notice.
  void Fail();

  // --- Introspection ---------------------------------------------------------
  const Website* site() const { return site_; }
  LocalityId locality() const { return locality_; }
  bool joined() const { return joined_; }
  PeerAddress directory() const { return dir_pointer_.addr; }
  const View& view() const { return view_; }
  const ContentStore& content() const { return content_; }
  bool alive() const { return alive_; }
  uint64_t queries_started() const { return queries_started_; }

  /// State extraction when this peer is promoted to directory peer
  /// (paper Sec 5.2). Cancels all timers; the peer must then be discarded.
  struct PromotionState {
    ContentStore content;
    View view;
  };
  PromotionState PrepareForPromotion();

  // --- Peer interface ----------------------------------------------------------
  void HandleMessage(MessagePtr msg) override;
  void HandleUndeliverable(PeerAddress dest, MessagePtr msg) override;

 private:
  struct PendingQuery {
    SimTime submit = 0;
    QueryStage stage = QueryStage::kViaDRing;
    std::vector<PeerAddress> tried;  // peer-direct targets already tried
    int attempts = 0;     // timeout-driven retries so far
    EventHandle timeout;  // armed only when query_timeout > 0
  };

  // Query pipeline.
  void ContinueQuery(ObjectId object);
  bool TryPeerDirect(ObjectId object, PendingQuery* pq);
  void SendToDirectory(ObjectId object, PendingQuery* pq);
  void SendViaDRing(ObjectId object, PendingQuery* pq);
  std::unique_ptr<FlowerQueryMsg> MakeQuery(ObjectId object,
                                            SimTime submit,
                                            QueryStage stage) const;

  // Timeout + exponential-backoff retry (query_timeout > 0; the fault
  // model's answer to lost messages and silent crashes).
  void ArmQueryTimeout(ObjectId object, PendingQuery* pq);
  void OnQueryTimeout(ObjectId object);
  void CancelPendingTimeouts();

  // Incoming requests from other peers / directory redirects.
  void HandleIncomingQuery(std::unique_ptr<FlowerQueryMsg> query);
  void HandleServe(std::unique_ptr<ServeMsg> serve);
  void HandleWelcome(std::unique_ptr<WelcomeMsg> welcome);
  void HandleNotFound(std::unique_ptr<NotFoundMsg> nf);

  // Gossip machinery (Algorithm 4).
  void StartOverlayTimers();
  void ActiveGossipRound();
  void HandleGossipRequest(std::unique_ptr<GossipRequestMsg> req);
  void HandleGossipReply(std::unique_ptr<GossipReplyMsg> reply);
  void MergeDirPointer(const DirectoryPointer& incoming);
  SummaryRef CurrentSummary();

  // Push & keepalive (Algorithm 5 / Sec 5.1).
  void AddObject(ObjectId object);
  static void DropDelta(std::vector<ObjectSlot>* delta, ObjectSlot slot);
  void MaybePush();
  void SendKeepalive();

  // Directory failure handling (Sec 5.2).
  void OnDirectoryUnreachable();
  void HandleJoinDirectoryResp(const JoinDirectoryResp& resp);
  void HandleDirectoryHandoff(std::unique_ptr<DirectoryHandoffMsg> handoff);

  FlowerContext* ctx_;
  const Website* site_;
  LocalityId locality_;
  Rng rng_;

  bool alive_ = false;
  bool joined_ = false;

  ContentStore content_;
  // Pending push delta, slot-encoded like the PushMsg it will ride
  // (convert via site_->SlotOf / IdAtSlot at the cache boundary).
  std::vector<ObjectSlot> push_delta_;    // additions since the last push
  std::vector<ObjectSlot> push_removed_;  // evictions since the last push
  SummaryRef summary_;  // current snapshot
  bool summary_dirty_ = true;

  View view_;
  DirectoryPointer dir_pointer_;
  /// A directory replacement attempt blocks new ones until this time, one
  /// keepalive_period after it started, or until its JoinDirectoryResp
  /// arrives: the request or the reply may be lost or bounce.
  SimTime replacement_blocks_until_ = 0;

  std::map<ObjectId, PendingQuery> pending_;
  uint64_t queries_started_ = 0;

  // Keepalive-ack suspicion (suspicion_keepalive_misses > 0): a silently
  // crashed directory shows up as consecutive unacknowledged keepalives.
  int keepalive_misses_ = 0;
  bool keepalive_awaiting_ack_ = false;

  Simulator::PeriodicTimer gossip_timer_;
  Simulator::PeriodicTimer keepalive_timer_;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_CONTENT_PEER_H_
