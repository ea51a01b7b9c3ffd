#include "cache/content_store.h"

#include "common/config.h"

namespace flower {

ContentStore ContentStore::FromConfig(const SimConfig& config) {
  return ContentStore(CachePolicyFromName(config.cache_policy),
                      config.cache_capacity_bytes);
}

}  // namespace flower
