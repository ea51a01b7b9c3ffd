#include "cache/content_store.h"

#include <algorithm>

#include "common/config.h"

namespace flower {

ContentStore ContentStore::FromConfig(const SimConfig& config) {
  if (config.cache_capacity_bytes == 0) return ContentStore();
  return ContentStore(static_cast<size_t>(config.cache_capacity_bytes /
                                          (config.object_size_bits / 8)));
}

size_t ContentStore::IndexOf(ObjectId id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return kNpos;
  return static_cast<size_t>(it - ids_.begin());
}

void ContentStore::Touch(ObjectId id) {
  if (!bounded()) return;
  const size_t i = IndexOf(id);
  if (i != kNpos) stamps_[i] = ++clock_;
}

bool ContentStore::Insert(ObjectId id, std::vector<ObjectId>* evicted) {
  if (Contains(id)) {
    Touch(id);
    return true;
  }
  if (ids_.size() >= max_objects_) {
    if (max_objects_ == 0) return false;
    // Full: the least recently used object (the smallest stamp) leaves.
    const auto victim = std::min_element(stamps_.begin(), stamps_.end()) -
                        stamps_.begin();
    if (evicted != nullptr) evicted->push_back(ids_[victim]);
    ids_.erase(ids_.begin() + victim);
    stamps_.erase(stamps_.begin() + victim);
  }
  const auto i =
      std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin();
  ids_.insert(ids_.begin() + i, id);
  if (bounded()) stamps_.insert(stamps_.begin() + i, ++clock_);
  return true;
}

bool ContentStore::Erase(ObjectId id) {
  const size_t i = IndexOf(id);
  if (i == kNpos) return false;
  const auto at = static_cast<std::ptrdiff_t>(i);
  ids_.erase(ids_.begin() + at);
  if (bounded()) stamps_.erase(stamps_.begin() + at);
  return true;
}

}  // namespace flower
