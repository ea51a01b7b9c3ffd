// D-ring routing tests: locality/interest-aware key management and the
// modified routing of paper Algorithm 2.
#include <gtest/gtest.h>

#include "core/flower_system.h"
#include "test_util.h"
#include "workload/workload.h"

namespace flower {
namespace {

class ProbeMsg
    : public MessageOf<MessageKind::kProbe, TrafficClass::kControl> {
 public:
  uint64_t SizeBits() const override { return 64; }
};

class DRingTest : public ::testing::Test {
 protected:
  DRingTest()
      : world_(TinyConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
  }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
};

TEST_F(DRingTest, StableRingHasOneDirectoryPerWebsiteLocality) {
  const SimConfig& c = world_.config();
  EXPECT_EQ(system_.dring()->size(),
            static_cast<size_t>(c.num_websites * c.num_localities));
  for (int w = 0; w < c.num_websites; ++w) {
    for (int l = 0; l < c.num_localities; ++l) {
      DirectoryPeer* d = system_.FindDirectory(static_cast<WebsiteId>(w),
                                               static_cast<LocalityId>(l));
      ASSERT_NE(d, nullptr) << "w=" << w << " l=" << l;
      EXPECT_EQ(d->locality(), static_cast<LocalityId>(l));
      EXPECT_EQ(d->site()->index, static_cast<WebsiteId>(w));
      EXPECT_EQ(d->IndexSize(), 0u);  // empty directory at start
    }
  }
}

TEST_F(DRingTest, DirectoriesOfOneWebsiteAreAdjacentOnRing) {
  const SimConfig& c = world_.config();
  DirectoryPeer* d0 = system_.FindDirectory(0, 0);
  ASSERT_NE(d0, nullptr);
  // Walking successors from d(ws,0) visits d(ws,1), d(ws,2), ...
  ChordNode* cur = d0;
  for (int l = 1; l < c.num_localities; ++l) {
    ChordNode* next = system_.dring()->SuccessorOf(
        system_.dring()->space().Add(cur->id(), 1));
    auto* dir = dynamic_cast<DirectoryPeer*>(next);
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(dir->site()->index, 0u);
    EXPECT_EQ(dir->locality(), static_cast<LocalityId>(l));
    cur = next;
  }
}

TEST_F(DRingTest, RouteReachesExactDirectory) {
  // Route from an arbitrary directory toward every (website, locality) key;
  // the exact directory peer must deliver it.
  const SimConfig& c = world_.config();
  DirectoryPeer* start = system_.FindDirectory(1, 1);
  ASSERT_NE(start, nullptr);
  for (int w = 0; w < c.num_websites; ++w) {
    const Website& site = system_.catalog().site(static_cast<WebsiteId>(w));
    for (int l = 0; l < c.num_localities; ++l) {
      Key key = system_.scheme().MakeKey(site.dring_hash,
                                         static_cast<LocalityId>(l));
      DirectoryPeer* expect = system_.FindDirectory(
          static_cast<WebsiteId>(w), static_cast<LocalityId>(l));
      uint64_t before = expect->queries_processed();
      // Use a query message so Deliver() runs the full path.
      auto q = std::make_unique<FlowerQueryMsg>(
          site.index, site.dring_hash, site.objects[0], start->address(),
          static_cast<LocalityId>(l), world_.sim()->Now(),
          QueryStage::kViaDRing);
      start->Route(key, std::move(q));
      world_.sim()->RunFor(kMinute);
      // Dir-to-dir summary redirects may bounce the query through the
      // target more than once; the invariant is that the exact directory
      // received it.
      EXPECT_GE(expect->queries_processed(), before + 1)
          << "w=" << w << " l=" << l;
    }
  }
}

TEST_F(DRingTest, MissingDirectoryFallsBackToSameWebsite) {
  // Kill d(ws=2, loc=1); a query keyed for it must reach another directory
  // of website 2 (Algorithm 2's website-aware redirection).
  DirectoryPeer* victim = system_.FindDirectory(2, 1);
  ASSERT_NE(victim, nullptr);
  victim->FailAbruptly();

  const Website& site = system_.catalog().site(2);
  DirectoryPeer* start = system_.FindDirectory(0, 0);
  Key key = system_.scheme().MakeKey(site.dring_hash, 1);

  uint64_t before_total = 0;
  std::vector<DirectoryPeer*> same_site;
  for (int l = 0; l < world_.config().num_localities; ++l) {
    DirectoryPeer* d = system_.FindDirectory(2, static_cast<LocalityId>(l));
    if (d != nullptr && d->alive()) {
      same_site.push_back(d);
      before_total += d->queries_processed();
    }
  }
  auto q = std::make_unique<FlowerQueryMsg>(
      site.index, site.dring_hash, site.objects[0], start->address(), 1,
      world_.sim()->Now(), QueryStage::kViaDRing);
  start->Route(key, std::move(q));
  world_.sim()->RunFor(kMinute);

  uint64_t after_total = 0;
  for (DirectoryPeer* d : same_site) after_total += d->queries_processed();
  EXPECT_EQ(after_total, before_total + 1);
}

TEST_F(DRingTest, AllDirectoriesOfWebsiteDeadFallsBackToServer) {
  const SimConfig& c = world_.config();
  const Website& site = system_.catalog().site(3);
  for (int l = 0; l < c.num_localities; ++l) {
    DirectoryPeer* d = system_.FindDirectory(3, static_cast<LocalityId>(l));
    ASSERT_NE(d, nullptr);
    d->FailAbruptly();
  }
  OriginServer* server = system_.FindServer(3);
  uint64_t before = server->queries_served();

  DirectoryPeer* start = system_.FindDirectory(0, 0);
  Key key = system_.scheme().MakeKey(site.dring_hash, 2);
  auto q = std::make_unique<FlowerQueryMsg>(
      site.index, site.dring_hash, site.objects[5], start->address(), 2,
      world_.sim()->Now(), QueryStage::kViaDRing);
  start->Route(key, std::move(q));
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(server->queries_served(), before + 1);
}

}  // namespace
}  // namespace flower
