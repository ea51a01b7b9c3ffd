#include "core/website.h"

#include "common/hash.h"

namespace flower {

WebsiteCatalog::WebsiteCatalog(const SimConfig& config,
                               const DRingIdScheme& scheme) {
  sites_.resize(static_cast<size_t>(config.num_websites));
  for (int w = 0; w < config.num_websites; ++w) {
    Website& site = sites_[static_cast<size_t>(w)];
    site.index = static_cast<WebsiteId>(w);
    site.url = "www.site" + std::to_string(w) + ".org";
    site.dring_hash = scheme.HashWebsite(site.url);
    site.objects.reserve(static_cast<size_t>(config.num_objects_per_website));
    for (int o = 0; o < config.num_objects_per_website; ++o) {
      site.objects.push_back(
          Fnv1a64(site.url + "/obj" + std::to_string(o)));
    }
    site.id_table.Build(site.objects);
  }
}

int WebsiteCatalog::FindByDRingHash(uint64_t hash) const {
  for (const Website& s : sites_) {
    if (s.dring_hash == hash) return static_cast<int>(s.index);
  }
  return -1;
}

}  // namespace flower
