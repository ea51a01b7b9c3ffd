// Squirrel (Iyer, Rowstron, Druschel — PODC 2002), the paper's baseline,
// in its directory strategy, the variant the paper compares against
// (Sec 6.1). Every client node is a DHT member. The peer whose ID is
// closest to hash(object URL) — the object's *home node* — stores a
// small directory of pointers to recent downloaders; queries route
// through the DHT to the home node, which forwards them to a random
// recent downloader, falling back to the origin server. No locality or
// interest awareness anywhere — that is the point of the comparison.
#ifndef FLOWERCDN_SQUIRREL_SQUIRREL_NODE_H_
#define FLOWERCDN_SQUIRREL_SQUIRREL_NODE_H_

#include <deque>
#include <map>
#include <set>

#include "cache/content_store.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/flower_messages.h"
#include "core/website.h"
#include "dht/chord_node.h"
#include "stats/metrics.h"

namespace flower {

struct SquirrelContext {
  Simulator* sim = nullptr;
  Network* network = nullptr;
  ChordRing* ring = nullptr;
  const SimConfig* config = nullptr;
  const WebsiteCatalog* catalog = nullptr;
  Metrics* metrics = nullptr;
  int directory_capacity = 4;  // pointers per object at the home node
};

class SquirrelNode : public ChordNode, public KbrApp {
 public:
  SquirrelNode(SquirrelContext* ctx, Key id, uint64_t rng_seed);
  ~SquirrelNode() override;

  /// Registers at the node and joins the ring (structural).
  bool Start(NodeId node);

  /// Workload entry: this peer requests an object of a website.
  void RequestObject(const Website* site, ObjectId object);

  // --- Introspection ------------------------------------------------------
  const ContentStore& cache() const { return cache_; }
  size_t HomeDirectorySize(ObjectId object) const;
  bool alive() const { return alive_; }
  void FailAbruptly();

  // --- KbrApp ---------------------------------------------------------------
  void Deliver(Key key, MessagePtr payload,
               const DeliveryInfo& info) override;

  // --- Peer -------------------------------------------------------------------
  void HandleMessage(MessagePtr msg) override;
  void HandleUndeliverable(PeerAddress dest, MessagePtr msg) override;

 private:
  /// Home-node processing: serve the object if held here, else forward
  /// to a recent downloader or to the origin server.
  void ProcessAsHome(std::unique_ptr<FlowerQueryMsg> query);
  /// Caches an object under the store's policy/budget, counting evictions.
  void CacheObject(ObjectId object);
  void RememberDownloader(ObjectId object, PeerAddress peer);
  void ServeClient(const FlowerQueryMsg& query);
  void HandleServe(std::unique_ptr<ServeMsg> serve);
  const Website* SiteOf(const FlowerQueryMsg& query) const;

  SquirrelContext* ctx_;
  Rng rng_;
  bool alive_ = false;

  /// Bounded web cache (src/cache/). With the default unbounded policy it
  /// behaves exactly like the std::set it replaced; with a finite
  /// `cache_capacity_bytes` the baseline runs under the same storage
  /// pressure and the same eviction policy as Flower-CDN's peers, so
  /// capacity ablations compare both systems fairly.
  ContentStore cache_;
  /// Objects this node evicted and has not re-cached. A redirected query
  /// that misses one of these is an eviction-induced stale pointer
  /// (counted via OnStaleRedirect); misses on never-held objects are the
  /// baseline's pre-existing optimistic-pointer noise and stay uncounted.
  std::set<ObjectId> evicted_ids_;
  /// Recent downloaders per object homed here (most recent at the back;
  /// capped at directory_capacity).
  std::map<ObjectId, std::deque<PeerAddress>> home_dirs_;
  std::set<ObjectId> pending_own_;
};

}  // namespace flower

#endif  // FLOWERCDN_SQUIRREL_SQUIRREL_NODE_H_
