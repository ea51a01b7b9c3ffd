// The simulated universe of websites and their objects, shared by
// Flower-CDN and the Squirrel baseline so both run identical workloads.
// Every object has the same size, config.object_size_bits.
#ifndef FLOWERCDN_CORE_WEBSITE_H_
#define FLOWERCDN_CORE_WEBSITE_H_

#include <string>
#include <vector>

#include "common/config.h"
#include "common/interner.h"
#include "common/types.h"
#include "core/flower_ids.h"

namespace flower {

struct Website {
  WebsiteId index = 0;
  std::string url;
  /// Website identifier in the D-ring subspace (scheme.HashWebsite(url)).
  uint64_t dring_hash = 0;
  /// Object identifiers, one per rank (hash of the object URL).
  std::vector<ObjectId> objects;
  /// Network address of the origin server (filled by the deployment).
  PeerAddress server_addr = kInvalidAddress;

  /// Flyweight table of this site's object ids: dense ObjectSlot
  /// handles in ascending-id order (see common/interner.h), built by the
  /// catalog from `objects`. Directory index entries and push/handoff
  /// payloads carry slots; ids convert at the Bloom-summary and wire
  /// boundaries.
  ObjectIdTable id_table;

  /// Dense slot of an object id (kInvalidSlot for foreign ids).
  ObjectSlot SlotOf(ObjectId id) const {
    return id_table.HandleOf(id);
  }
  /// Object id behind a slot.
  ObjectId IdAtSlot(ObjectSlot slot) const { return id_table.ValueOf(slot); }
  /// Number of distinct objects (slots are exactly [0, num_slots())).
  size_t num_slots() const { return id_table.size(); }
};

class WebsiteCatalog {
 public:
  /// Builds num_websites sites with num_objects_per_website objects each.
  WebsiteCatalog(const SimConfig& config, const DRingIdScheme& scheme);

  int size() const { return static_cast<int>(sites_.size()); }
  const Website& site(WebsiteId i) const { return sites_[i]; }
  Website& mutable_site(WebsiteId i) { return sites_[i]; }

  /// Index lookup by D-ring hash; returns -1 when unknown.
  int FindByDRingHash(uint64_t hash) const;

 private:
  std::vector<Website> sites_;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_WEBSITE_H_
