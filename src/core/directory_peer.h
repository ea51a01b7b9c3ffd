// Directory peer d(ws,loc) (paper Sec 3.3-3.4, 4.2.1, 5).
//
// A directory peer sits on the D-ring (it is a DRingNode) and anchors one
// content overlay. Its soft state lives in a DirectoryStore
// (src/cache/directory_store.h):
//  - directory-index(ws,loc): one entry per content peer with age, join
//    time and the peer's object list. Unbounded by default (the paper's
//    complete view); under a finite `directory_index_capacity` entries
//    are footprint-accounted and the least recently contacted one is
//    evicted, and the store keeps the holder counts the summaries are
//    built from consistent through every eviction.
//  - directory-summaries(ws,loc_j): Bloom summaries of the directory
//    indexes of same-website directory peers it knows from its routing
//    table (its D-ring neighbors).
// It processes queries with Algorithm 3 (index -> summaries -> server),
// ages and expires entries (Algorithm 6 + T_dead), refreshes neighbor
// summaries past a change threshold, hands its directory over on a
// voluntary leave, and adjudicates replacement joins (Sec 5.2).
//
// Directory peers are participants too: a promoted directory keeps the
// content it cached as a content peer and serves it; and the workload may
// ask a directory peer for new objects like any client (RequestObject).
#ifndef FLOWERCDN_CORE_DIRECTORY_PEER_H_
#define FLOWERCDN_CORE_DIRECTORY_PEER_H_

#include <memory>
#include <set>
#include <vector>

#include "cache/content_store.h"
#include "cache/directory_store.h"
#include "common/rng.h"
#include "core/dring_node.h"
#include "core/flower_messages.h"
#include "gossip/view.h"

namespace flower {

class DirectoryPeer : public DRingNode, public KbrApp {
 public:
  DirectoryPeer(FlowerContext* ctx, const Website* site, LocalityId locality,
                uint32_t instance, uint64_t rng_seed);

  /// Registers on the network, joins the D-ring (structural), starts the
  /// aging timer. Returns false if the directory position is taken.
  bool Start(NodeId node);

  /// Seeds state when this directory was promoted from a content peer:
  /// its cached content and its view (used to answer first queries from
  /// content summaries while the index rebuilds, Sec 5.2).
  void SeedFromPromotion(ContentStore content, View view);

  /// Installs a handed-over directory (voluntary leave of the predecessor).
  void InstallHandoff(const DirectoryHandoffMsg& handoff);

  /// Voluntary departure: hand the directory to the most stable content
  /// peer and leave (Sec 5.2). Falls back to Fail() with an empty overlay.
  void LeaveGracefully();

  /// Crash without notice.
  void FailAbruptly();

  /// Workload entry: the directory peer itself wants an object.
  void RequestObject(ObjectId object);

  // --- Introspection -----------------------------------------------------------
  const Website* site() const { return site_; }
  LocalityId locality() const { return locality_; }
  uint32_t instance() const { return instance_; }
  size_t IndexSize() const { return dir_store_.size(); }
  bool IndexHas(PeerAddress addr) const { return dir_store_.Contains(addr); }
  /// Sorted ObjectSlots claimed by `addr`'s index entry (slot order ==
  /// id order; convert via site()->IdAtSlot). Null when absent.
  const std::vector<ObjectSlot>* IndexObjectsOf(PeerAddress addr) const;
  size_t NumSummaries() const { return dir_store_.summaries().size(); }
  bool HasSummaryFrom(Key dir_id) const {
    return dir_store_.HasSummaryFrom(dir_id);
  }
  const DirectoryStore& dir_store() const { return dir_store_; }
  const ContentStore& own_content() const { return content_; }
  const View& view() const { return view_; }
  uint64_t queries_processed() const { return queries_processed_; }
  uint64_t redirect_failures() const { return redirect_failures_; }
  bool alive() const { return alive_; }

  /// Overlay capacity check (S_co).
  bool OverlayFull() const;

  // --- KbrApp -------------------------------------------------------------------
  void Deliver(Key key, MessagePtr payload,
               const DeliveryInfo& info) override;

  // --- Peer ---------------------------------------------------------------------
  void HandleMessage(MessagePtr msg) override;
  void HandleUndeliverable(PeerAddress dest, MessagePtr msg) override;

 private:
  // Algorithm 3.
  void DeliverQuery(Key key, std::unique_ptr<FlowerQueryMsg> query);
  void ProcessQuery(std::unique_ptr<FlowerQueryMsg> query);
  void ServeFromOwnContent(const FlowerQueryMsg& query);
  bool RedirectToIndexHolder(std::unique_ptr<FlowerQueryMsg>& query);
  bool RedirectViaViewSummaries(std::unique_ptr<FlowerQueryMsg>& query,
                                const BloomProbe& probe);
  bool RedirectViaDirSummaries(std::unique_ptr<FlowerQueryMsg>& query,
                               const BloomProbe& probe);
  void RedirectToServer(std::unique_ptr<FlowerQueryMsg> query);

  // Admission of new clients in this locality.
  void MaybeAdmitClient(const FlowerQueryMsg& query);

  // Index maintenance (slot-valued: pushes arrive slot-encoded and the
  // index stores slots; ids convert at this peer's other boundaries).
  void AddObjectsToEntry(PeerAddress peer, const std::vector<ObjectSlot>& add,
                         const std::vector<ObjectSlot>& remove);
  void RemoveEntry(PeerAddress peer);
  void AgeTick();  // Algorithm 6 active behavior + T_dead expiry
  /// Folds a DirectoryStore::Delta into summary bookkeeping and metrics
  /// (new ids, index evictions).
  void ApplyDelta(const DirectoryStore::Delta& delta);

  // Directory summaries.
  void MaybeRefreshNeighborSummaries();
  std::vector<NodeRef> SameWebsiteNeighbors() const;
  SummaryRef BuildIndexSummary();

  // Own-content handling (directories are clients too).
  void AddOwnObject(ObjectId object);
  void HandleServe(std::unique_ptr<ServeMsg> serve);

  // Replacement adjudication (Sec 5.2).
  void HandleJoinDirectoryReq(const JoinDirectoryReq& req);

  const Website* site_;
  LocalityId locality_;
  uint32_t instance_;
  Rng rng_;
  bool alive_ = false;

  /// Index entries + holder counts + neighbor summaries, capacity-bounded
  /// under `directory_index_capacity` (unbounded by default).
  DirectoryStore dir_store_;

  // Summary refresh state (Sec 4.2.1: refresh when the fraction of object
  // ids not reflected in the last sent summary passes a threshold).
  size_t ids_in_last_sent_summary_ = 0;
  size_t new_ids_since_summary_ = 0;

  // Own content (non-empty when promoted from a content peer).
  ContentStore content_;
  View view_;  // inherited view; answers first queries during takeover
  std::set<ObjectId> pending_own_;  // own requests in flight

  uint64_t queries_processed_ = 0;
  uint64_t redirect_failures_ = 0;

  Simulator::PeriodicTimer age_timer_;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_DIRECTORY_PEER_H_
