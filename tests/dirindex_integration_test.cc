// Integration tests of the bounded directory index inside the full
// Flower-CDN stack: capacity pressure evicts index entries while keeping
// holder counts (the summary source) consistent, stale redirects are
// attributed to the channel that carried the claim, and the default
// unbounded index reproduces the pre-refactor quickstart metrics
// bit-identically.
#include <gtest/gtest.h>

#include "api/experiment.h"
#include "cache/directory_store.h"
#include "core/content_peer.h"
#include "core/flower_system.h"
#include "test_util.h"

namespace flower {
namespace {

/// holder_counts must be exactly the reference counts over the index
/// entries — directory summaries rebuild from this map, so consistency
/// here is what keeps post-eviction summaries honest.
void ExpectStoreConsistent(const DirectoryStore& store) {
  std::map<ObjectSlot, int> expected;
  for (const auto& [addr, entry] : store.entries()) {
    for (ObjectSlot o : entry.objects) ++expected[o];
  }
  std::map<ObjectSlot, int> actual;
  for (size_t i = 0; i < store.holder_slots().size(); ++i) {
    actual[store.holder_slots()[i]] = store.holder_count_at(i);
  }
  EXPECT_EQ(actual, expected);
  if (store.bounded()) {
    EXPECT_LE(store.bytes_used(), store.capacity_bytes());
    uint64_t footprint = 0;
    for (const auto& [addr, entry] : store.entries()) {
      footprint += DirectoryStore::FootprintBytes(entry.objects.size());
    }
    EXPECT_EQ(store.bytes_used(), footprint);
  }
}

TEST(DirIndexIntegrationTest, BoundedIndexEvictsAndStaysConsistent) {
  SimConfig c = TinyConfig();
  c.directory_index_policy = "lru";
  // Far below what a full overlay of S_co=15 peers needs, so entries
  // churn continuously.
  c.directory_index_capacity_bytes = 4 * DirectoryStore::FootprintBytes(8);

  RunResult r = Experiment(c).WithSystem("flower").Run();
  EXPECT_GT(r.dir_index_evictions, 0u)
      << "a bounded index under a live workload must evict";
  EXPECT_EQ(r.queries_served, r.queries_submitted)
      << "index evictions must never strand a query";
  // Losing index entries costs hits, never correctness: the run still
  // resolves a sensible fraction of queries.
  EXPECT_GT(r.cumulative_hit_ratio, 0.1);
}

TEST(DirIndexIntegrationTest, LiveDirectoriesKeepHolderCountsConsistent) {
  SimConfig c = TinyConfig();
  c.directory_index_policy = "lru";
  c.directory_index_capacity_bytes = 4 * DirectoryStore::FootprintBytes(8);

  TestWorld world(c);
  Metrics metrics(world.config());
  FlowerSystem system(world.config(), world.sim(), world.network(),
                      world.topology(), &metrics);
  system.Setup();
  // Drive the two most populated pools so at least one overlay fills
  // well past the index budget.
  for (size_t rank = 0; rank < 30; ++rank) {
    for (LocalityId loc = 0; loc < 2; ++loc) {
      const auto& pool = system.deployment().client_pools[0][loc];
      ObjectId obj = system.catalog().site(0).objects[rank];
      system.SubmitQuery(pool[rank % pool.size()], 0, obj);
    }
    world.sim()->RunFor(kMinute);
  }
  ASSERT_GT(metrics.dir_index_evictions(), 0u);
  for (DirectoryPeer* dir : system.LiveDirectories()) {
    ExpectStoreConsistent(dir->dir_store());
  }
}

// Gossip off: views stay empty, so every stale claim is carried by a
// directory index entry and the attribution split is deterministic.
TEST(DirIndexIntegrationTest, StaleRedirectsAttributedToDirectoryChannel) {
  SimConfig c = TinyConfig();
  c.cache_policy = "lru";
  c.cache_capacity_bytes = 3 * (c.object_size_bits / 8);
  c.gossip_period = 1000 * kHour;
  c.push_threshold = 0.7;  // batch deltas: evictions stay claimed a while

  TestWorld world(c);
  Metrics metrics(world.config());
  FlowerSystem system(world.config(), world.sim(), world.network(),
                      world.topology(), &metrics);
  system.Setup();
  const auto& pool = system.deployment().client_pools[0][0];
  auto obj = [&](size_t rank) {
    return system.catalog().site(0).objects[rank];
  };
  auto fetch = [&](NodeId node, size_t rank) {
    system.SubmitQuery(node, 0, obj(rank));
    world.sim()->RunFor(kMinute);
  };

  // A churns its 3-object cache; the batched push window leaves the
  // directory claiming at least one object A already evicted.
  for (size_t rank : {0u, 1u, 2u, 3u, 4u}) fetch(pool[0], rank);
  ContentPeer* a = system.FindContentPeer(pool[0]);
  ASSERT_NE(a, nullptr);
  DirectoryPeer* dir = system.FindDirectory(0, a->locality());
  ASSERT_NE(dir, nullptr);
  const std::vector<ObjectSlot>* claimed = dir->IndexObjectsOf(a->address());
  ASSERT_NE(claimed, nullptr);
  const Website& site = system.catalog().site(0);
  auto claims = [&](ObjectId id) {
    return std::binary_search(claimed->begin(), claimed->end(),
                              site.SlotOf(id));
  };
  size_t stale_rank = 5;
  for (size_t rank = 0; rank < 5; ++rank) {
    if (!a->content().Contains(obj(rank)) && claims(obj(rank))) {
      stale_rank = rank;
      break;
    }
  }
  ASSERT_LT(stale_rank, 5u) << "no evicted-but-claimed object to probe";

  // B asks the directory for it: the redirect to A is answered NotFound
  // and must land in the directory-index bucket.
  uint64_t dir_before =
      metrics.StaleRedirectsBy(Metrics::StaleSource::kDirIndex);
  fetch(pool[1], stale_rank);
  EXPECT_GE(metrics.StaleRedirectsBy(Metrics::StaleSource::kDirIndex),
            dir_before + 1);
  EXPECT_EQ(metrics.stale_redirects(),
            metrics.StaleRedirectsBy(Metrics::StaleSource::kPeerSummary) +
                metrics.StaleRedirectsBy(Metrics::StaleSource::kDirIndex))
      << "the split must always sum to the total";
  EXPECT_EQ(metrics.queries_served(), metrics.queries_submitted());
}

// The default (unbounded) directory index must reproduce the
// pre-refactor metrics of examples/quickstart bit-identically. The
// integer counters are exact golden values captured from the seed build;
// the doubles are pinned to their printed 6-significant-digit precision.
TEST(DirIndexIntegrationTest, UnboundedIndexReproducesQuickstartMetrics) {
  SimConfig c;
  c.num_topology_nodes = 1200;
  c.num_websites = 20;
  c.num_active_websites = 4;
  c.max_content_overlay_size = 40;
  c.duration = 6 * kHour;
  c.queries_per_second = 3.0;

  RunResult r = Experiment(c).WithSystem("flower").Run();
  EXPECT_EQ(r.queries_submitted, 48119u);
  EXPECT_EQ(r.server_hits, 4686u);
  EXPECT_EQ(r.participants, 892u);
  EXPECT_EQ(r.cache_evictions, 0u);
  EXPECT_EQ(r.dir_index_evictions, 0u);
  EXPECT_NEAR(r.final_hit_ratio, 0.990847, 1e-6);
  EXPECT_NEAR(r.cumulative_hit_ratio, 0.902616, 1e-6);
  EXPECT_NEAR(r.mean_lookup_ms, 145.743, 1e-3);
  EXPECT_NEAR(r.mean_transfer_ms, 102.49, 1e-2);
  EXPECT_NEAR(r.background_bps, 67.948, 1e-3);
  // End-of-run gossip state, which no sink writes: 772 joined peers hold
  // 25,747 view entries, 25,711 of them with a content summary.
  EXPECT_DOUBLE_EQ(r.mean_active_view, 25747.0 / 772);
  EXPECT_DOUBLE_EQ(r.mean_summaries_known, 25711.0 / 772);
  EXPECT_EQ(r.mean_passive_view, 0.0);
  EXPECT_EQ(r.mean_summary_staleness, 0.0);

  // Spelling the defaults out (`directory_index_capacity=unbounded`)
  // must run the identical experiment, bit for bit.
  SimConfig explicit_cfg = c;
  ASSERT_TRUE(explicit_cfg.Apply("directory_index_policy", "lru").ok());
  ASSERT_TRUE(
      explicit_cfg.Apply("directory_index_capacity", "unbounded").ok());
  RunResult e = Experiment(explicit_cfg).WithSystem("flower").Run();
  EXPECT_EQ(e.queries_submitted, r.queries_submitted);
  EXPECT_EQ(e.server_hits, r.server_hits);
  EXPECT_DOUBLE_EQ(e.final_hit_ratio, r.final_hit_ratio);
  EXPECT_DOUBLE_EQ(e.cumulative_hit_ratio, r.cumulative_hit_ratio);
  EXPECT_DOUBLE_EQ(e.mean_lookup_ms, r.mean_lookup_ms);
  EXPECT_DOUBLE_EQ(e.mean_transfer_ms, r.mean_transfer_ms);
  EXPECT_DOUBLE_EQ(e.background_bps, r.background_bps);
}

}  // namespace
}  // namespace flower
