#include "core/website.h"

#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

TEST(WebsiteCatalogTest, BuildsConfiguredUniverse) {
  SimConfig c = TinyConfig();
  DRingIdScheme scheme(c.chord_id_bits, c.locality_id_bits, 0);
  WebsiteCatalog catalog(c, scheme);
  EXPECT_EQ(catalog.size(), c.num_websites);
  for (int w = 0; w < catalog.size(); ++w) {
    const Website& s = catalog.site(static_cast<WebsiteId>(w));
    EXPECT_EQ(s.index, static_cast<WebsiteId>(w));
    EXPECT_EQ(static_cast<int>(s.objects.size()),
              c.num_objects_per_website);
    EXPECT_NE(s.dring_hash, 0u);
  }
}

TEST(WebsiteCatalogTest, ObjectIdsAreUniqueAcrossSites) {
  SimConfig c = TinyConfig();
  c.num_websites = 20;
  c.num_objects_per_website = 100;
  DRingIdScheme scheme(c.chord_id_bits, c.locality_id_bits, 0);
  WebsiteCatalog catalog(c, scheme);
  std::set<ObjectId> all;
  for (int w = 0; w < catalog.size(); ++w) {
    for (ObjectId o : catalog.site(static_cast<WebsiteId>(w)).objects) {
      EXPECT_TRUE(all.insert(o).second);
    }
  }
}

TEST(WebsiteCatalogTest, FindByDRingHash) {
  SimConfig c = TinyConfig();
  DRingIdScheme scheme(c.chord_id_bits, c.locality_id_bits, 0);
  WebsiteCatalog catalog(c, scheme);
  for (int w = 0; w < catalog.size(); ++w) {
    uint64_t h = catalog.site(static_cast<WebsiteId>(w)).dring_hash;
    EXPECT_EQ(catalog.FindByDRingHash(h), w);
  }
  EXPECT_EQ(catalog.FindByDRingHash(0xDEADBEEF), -1);
}

TEST(WebsiteCatalogTest, SlotTableCoversEveryObject) {
  SimConfig c = TinyConfig();
  DRingIdScheme scheme(c.chord_id_bits, c.locality_id_bits, 0);
  WebsiteCatalog catalog(c, scheme);
  const Website& s = catalog.site(0);
  ASSERT_EQ(s.num_slots(), s.objects.size());
  for (ObjectId id : s.objects) {
    ObjectSlot slot = s.SlotOf(id);
    ASSERT_NE(slot, kInvalidSlot);
    EXPECT_EQ(s.IdAtSlot(slot), id);
  }
  EXPECT_EQ(s.SlotOf(0xDEADBEEF), kInvalidSlot) << "foreign ids have none";
}

TEST(WebsiteCatalogTest, DeterministicAcrossConstructions) {
  SimConfig c = TinyConfig();
  DRingIdScheme scheme(c.chord_id_bits, c.locality_id_bits, 0);
  WebsiteCatalog a(c, scheme), b(c, scheme);
  for (int w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a.site(static_cast<WebsiteId>(w)).objects,
              b.site(static_cast<WebsiteId>(w)).objects);
    EXPECT_EQ(a.site(static_cast<WebsiteId>(w)).dring_hash,
              b.site(static_cast<WebsiteId>(w)).dring_hash);
  }
}

}  // namespace
}  // namespace flower
