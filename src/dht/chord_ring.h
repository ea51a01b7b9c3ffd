// Ring membership: the sorted map of live nodes *is* the ring. Nodes read
// their neighbors and fingers from it, which models a perfectly stabilized
// Chord. A version counter moves with every membership change, so nodes
// can cache what they read until the ring changes. The ring also names
// the run's Metrics, where its nodes count the routes they drop.
#ifndef FLOWERCDN_DHT_CHORD_RING_H_
#define FLOWERCDN_DHT_CHORD_RING_H_

#include <cstdint>
#include <map>

#include "dht/chord_id.h"
#include "dht/chord_messages.h"
#include "dht/chord_node.h"

namespace flower {

class Metrics;

class ChordRing {
 public:
  /// `metrics` (non-null) receives OnRouteDropped for every route a node
  /// drops after config.max_route_hops.
  ChordRing(const ChordConfig& config, Metrics* metrics);

  const ChordConfig& config() const { return config_; }
  Metrics* metrics() const { return metrics_; }
  const IdSpace& space() const { return space_; }
  size_t size() const { return nodes_.size(); }

  /// Inserts a node; false if the id is taken.
  bool Insert(ChordNode* node);

  /// Removes a node (no-op if absent).
  void Remove(ChordNode* node);

  bool Contains(Key id) const { return nodes_.count(id) > 0; }
  ChordNode* Find(Key id) const;

  /// First live node with id >= k, wrapping (includes k itself).
  ChordNode* SuccessorOf(Key k) const;

  /// Last live node with id strictly < k, wrapping.
  ChordNode* PredecessorOf(Key k) const;

  /// A deterministic arbitrary member; nullptr when empty.
  ChordNode* AnyNode() const;

  /// Changes with every successful Insert and every Remove of a member.
  uint64_t version() const { return version_; }

 private:
  ChordConfig config_;
  IdSpace space_;
  Metrics* metrics_;
  std::map<Key, ChordNode*> nodes_;
  uint64_t version_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_DHT_CHORD_RING_H_
