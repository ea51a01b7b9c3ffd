// Dense peer tables: the structure-of-arrays registry behind
// FlowerSystem's peer bookkeeping, sized for 100k+ peer runs.
//
// The registry this replaces — one unordered_map<NodeId, unique_ptr<T>>
// — pays a heap-allocated bucket node (~56 bytes) per peer and
// walks pointer-chased buckets on every harvest (churn, stats and
// background-traffic accounting iterate the whole population every
// period). Here the population lives in two parallel dense vectors:
//
//   nodes_[i]    - the NodeId occupying slot i          (hot: scanned)
//   peers_[i]    - owning pointer to that node's peer   (hot: scanned)
//   slot_of_[n]  - NodeId -> slot, 4 bytes per NodeId   (hot: looked up)
//
// Harvests stream the two arrays linearly and never touch the index;
// keyed lookups go through it, and FlowerSystem::SubmitQuery makes two
// per submitted query. NodeIds are dense topology indices, so the index
// is a flat vector (kVacant where no peer is registered) grown to the
// largest NodeId ever inserted: one load per lookup, no hashing, 4 bytes
// per node of the topology. Removal is swap-with-last, so slots stay
// dense under churn; the peers themselves sit behind unique_ptr, so raw
// Peer* handed to the network layer stay stable across slot moves. Slot
// order is NOT meaningful — every iteration the simulation observes is
// sorted by node id by the caller (see flower_system.cc), which is what
// keeps behavior independent of churn history and of this container's
// layout.
#ifndef FLOWERCDN_CORE_PEER_TABLE_H_
#define FLOWERCDN_CORE_PEER_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"

namespace flower {

template <typename T>
class PeerTable {
 public:
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  bool Contains(NodeId node) const { return SlotOf(node) != kVacant; }

  /// The peer registered at `node`, or nullptr.
  T* Find(NodeId node) const {
    const uint32_t i = SlotOf(node);
    return i == kVacant ? nullptr : peers_[i].get();
  }

  /// Registers `peer` at `node` (which must be vacant). Returns the raw
  /// pointer, which stays valid until Take() releases the peer.
  T* Insert(NodeId node, std::unique_ptr<T> peer) {
    assert(peer != nullptr);
    assert(node != kInvalidNode);
    assert(!Contains(node) && "node already occupied");
    if (node >= slot_of_.size()) slot_of_.resize(size_t{node} + 1, kVacant);
    slot_of_[node] = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(node);
    peers_.push_back(std::move(peer));
    return peers_.back().get();
  }

  /// Releases ownership of the peer at `node` (nullptr when vacant).
  /// Swap-with-last keeps the arrays dense; other peers' raw pointers
  /// are unaffected.
  std::unique_ptr<T> Take(NodeId node) {
    const uint32_t i = SlotOf(node);
    if (i == kVacant) return nullptr;
    std::unique_ptr<T> out = std::move(peers_[i]);
    const uint32_t last = static_cast<uint32_t>(nodes_.size()) - 1;
    if (i != last) {
      nodes_[i] = nodes_[last];
      peers_[i] = std::move(peers_[last]);
      slot_of_[nodes_[i]] = i;
    }
    nodes_.pop_back();
    peers_.pop_back();
    slot_of_[node] = kVacant;
    return out;
  }

  /// Slot-indexed access for linear harvests (slot order is arbitrary;
  /// sort whatever you emit).
  const std::vector<NodeId>& nodes() const { return nodes_; }
  T* at(size_t i) const { return peers_[i].get(); }

 private:
  static constexpr uint32_t kVacant = static_cast<uint32_t>(-1);

  uint32_t SlotOf(NodeId node) const {
    return node < slot_of_.size() ? slot_of_[node] : kVacant;
  }

  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<T>> peers_;
  std::vector<uint32_t> slot_of_;  // NodeId -> slot, kVacant when none
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_PEER_TABLE_H_
