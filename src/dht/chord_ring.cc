#include "dht/chord_ring.h"

#include <cassert>

namespace flower {

ChordRing::ChordRing(const ChordConfig& config, Metrics* metrics)
    : config_(config), space_(config.id_bits), metrics_(metrics) {
  assert(metrics != nullptr);
}

bool ChordRing::Insert(ChordNode* node) {
  assert(node != nullptr);
  auto [it, inserted] = nodes_.emplace(node->id(), node);
  (void)it;
  if (inserted) ++version_;
  return inserted;
}

void ChordRing::Remove(ChordNode* node) {
  assert(node != nullptr);
  auto it = nodes_.find(node->id());
  if (it != nodes_.end() && it->second == node) {
    nodes_.erase(it);
    ++version_;
  }
}

ChordNode* ChordRing::Find(Key id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

ChordNode* ChordRing::SuccessorOf(Key k) const {
  if (nodes_.empty()) return nullptr;
  auto it = nodes_.lower_bound(k);
  if (it == nodes_.end()) it = nodes_.begin();
  return it->second;
}

ChordNode* ChordRing::PredecessorOf(Key k) const {
  if (nodes_.empty()) return nullptr;
  auto it = nodes_.lower_bound(k);
  if (it == nodes_.begin()) it = nodes_.end();
  --it;
  return it->second;
}

ChordNode* ChordRing::AnyNode() const {
  return nodes_.empty() ? nullptr : nodes_.begin()->second;
}

}  // namespace flower
