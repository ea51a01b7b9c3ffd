#include "core/flower_ids.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace flower {
namespace {

TEST(DRingIdSchemeTest, PaperExampleLayout) {
  // Paper Sec 3.1 example: 7-bit IDs, 4 website bits, 3 locality bits,
  // k = 8. hash(alpha) = 1 gives directory IDs 8..15 for localities 0..7.
  DRingIdScheme scheme(7, 3, 0);
  EXPECT_EQ(scheme.website_bits(), 4);
  for (LocalityId loc = 0; loc < 8; ++loc) {
    Key id = scheme.MakeDirectoryId(1, loc);
    EXPECT_EQ(id, 8u + loc);
    EXPECT_EQ(scheme.WebsiteIdOf(id), 1u);
    EXPECT_EQ(scheme.LocalityOf(id), loc);
  }
}

TEST(DRingIdSchemeTest, SameWebsiteDirectoriesAreRingNeighbors) {
  DRingIdScheme scheme(40, 8, 0);
  uint64_t ws = scheme.HashWebsite("www.example.org");
  Key prev = scheme.MakeDirectoryId(ws, 0);
  for (LocalityId loc = 1; loc < 6; ++loc) {
    Key cur = scheme.MakeDirectoryId(ws, loc);
    EXPECT_EQ(cur, prev + 1);  // consecutive IDs (paper Sec 3.1)
    prev = cur;
  }
}

TEST(DRingIdSchemeTest, RoundTripProperty) {
  DRingIdScheme scheme(40, 8, 0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t ws = (rng.Next() & ((1ULL << 32) - 1));
    if (ws == 0) ws = 1;
    LocalityId loc = static_cast<LocalityId>(rng.Index(256));
    Key id = scheme.MakeDirectoryId(ws, loc);
    EXPECT_EQ(scheme.WebsiteIdOf(id), ws);
    EXPECT_EQ(scheme.LocalityOf(id), loc);
    EXPECT_EQ(scheme.InstanceOf(id), 0u);
  }
}

TEST(DRingIdSchemeTest, ExtraBitsForScaleUp) {
  // Sec 5.3: b extra bits allow several directories per (website, locality).
  DRingIdScheme scheme(40, 8, 2);
  uint64_t ws = scheme.HashWebsite("www.example.org");
  for (uint32_t inst = 0; inst < 4; ++inst) {
    Key id = scheme.MakeDirectoryId(ws, 3, inst);
    EXPECT_EQ(scheme.WebsiteIdOf(id), ws);
    EXPECT_EQ(scheme.LocalityOf(id), 3u);
    EXPECT_EQ(scheme.InstanceOf(id), inst);
  }
  // Instances of one locality precede the next locality's instances.
  EXPECT_LT(scheme.MakeDirectoryId(ws, 3, 3), scheme.MakeDirectoryId(ws, 4, 0));
}

TEST(DRingIdSchemeTest, WebsiteHashNonZeroAndDeterministic) {
  DRingIdScheme scheme(40, 8, 0);
  EXPECT_NE(scheme.HashWebsite("a"), 0u);
  EXPECT_EQ(scheme.HashWebsite("www.x.org"), scheme.HashWebsite("www.x.org"));
  EXPECT_NE(scheme.HashWebsite("www.x.org"), scheme.HashWebsite("www.y.org"));
}

TEST(DRingIdSchemeTest, SameWebsitePredicate) {
  DRingIdScheme scheme(40, 8, 0);
  uint64_t a = scheme.HashWebsite("www.a.org");
  uint64_t b = scheme.HashWebsite("www.b.org");
  Key a0 = scheme.MakeDirectoryId(a, 0);
  Key a5 = scheme.MakeDirectoryId(a, 5);
  Key b0 = scheme.MakeDirectoryId(b, 0);
  EXPECT_TRUE(scheme.SameWebsite(a0, a5));
  EXPECT_FALSE(scheme.SameWebsite(a0, b0));
}

TEST(DRingIdSchemeTest, MakeKeyEqualsInstanceZero) {
  DRingIdScheme scheme(40, 8, 2);
  uint64_t ws = scheme.HashWebsite("www.a.org");
  EXPECT_EQ(scheme.MakeKey(ws, 4), scheme.MakeDirectoryId(ws, 4, 0));
}

TEST(DRingIdSchemeTest, CheckAcceptsItsLimitsAndNamesTheKeyItRejects) {
  EXPECT_TRUE(DRingIdScheme::Check(64, 8, 0, 256, 1).ok());
  EXPECT_TRUE(DRingIdScheme::Check(11, 8, 2, 256, 4).ok());
  struct Case {
    int id_bits, locality_bits, extra_bits;
    uint64_t localities, instances;
    std::string key;  // the key the message must name
  };
  const std::vector<Case> cases = {
      {10, 8, 2, 1, 1, "chord_id_bits"},
      {65, 8, 0, 1, 1, "chord_id_bits"},
      {64, 0, 0, 1, 1, "locality_id_bits"},
      {64, 8, -1, 1, 1, "scaleup_extra_bits"},
      {64, 8, 0, 257, 1, "num_localities"},
      {64, 8, 0, 6, 2, "scaleup_instances"},
      {64, 8, 2, 6, 5, "scaleup_instances"},
  };
  for (const Case& c : cases) {
    const Status s = DRingIdScheme::Check(c.id_bits, c.locality_bits,
                                          c.extra_bits, c.localities,
                                          c.instances);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << c.key;
    EXPECT_NE(s.message().find(c.key), std::string::npos) << s.ToString();
  }
}

}  // namespace
}  // namespace flower
