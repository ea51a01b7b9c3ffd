#include "core/deployment.h"

#include <climits>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

TEST(DeploymentTest, NodesAreDistinctAcrossRoles) {
  SimConfig c = TinyConfig();
  Rng rng(1);
  Topology topo(c, &rng);
  Rng plan_rng(2);
  Deployment d = Deployment::Plan(c, topo, &plan_rng);

  std::set<NodeId> used;
  for (NodeId n : d.server_nodes) EXPECT_TRUE(used.insert(n).second);
  for (const auto& per_site : d.dir_nodes) {
    for (const auto& per_loc : per_site) {
      for (NodeId n : per_loc) EXPECT_TRUE(used.insert(n).second);
    }
  }
  for (const auto& per_site : d.client_pools) {
    for (const auto& pool : per_site) {
      for (NodeId n : pool) EXPECT_TRUE(used.insert(n).second);
    }
  }
}

TEST(DeploymentTest, DirectoriesLieInTheirLocality) {
  SimConfig c = TinyConfig();
  Rng rng(1);
  Topology topo(c, &rng);
  Rng plan_rng(2);
  Deployment d = Deployment::Plan(c, topo, &plan_rng);
  for (const auto& per_site : d.dir_nodes) {
    for (size_t l = 0; l < per_site.size(); ++l) {
      for (NodeId n : per_site[l]) {
        EXPECT_EQ(d.detected_locality[n], static_cast<LocalityId>(l));
      }
    }
  }
}

TEST(DeploymentTest, ClientPoolsRespectLocalityAndCap) {
  SimConfig c = TinyConfig();
  Rng rng(1);
  Topology topo(c, &rng);
  Rng plan_rng(2);
  Deployment d = Deployment::Plan(c, topo, &plan_rng);
  ASSERT_EQ(static_cast<int>(d.client_pools.size()),
            c.num_active_websites);
  for (const auto& per_site : d.client_pools) {
    for (size_t l = 0; l < per_site.size(); ++l) {
      EXPECT_LE(static_cast<int>(per_site[l].size()),
                c.max_content_overlay_size);
      for (NodeId n : per_site[l]) {
        EXPECT_EQ(d.detected_locality[n], static_cast<LocalityId>(l));
      }
    }
  }
}

TEST(DeploymentTest, DetectedLocalityMatchesGroundTruthWithoutNoise) {
  SimConfig c = TinyConfig();
  Rng rng(1);
  Topology topo(c, &rng);
  Rng plan_rng(2);
  Deployment d = Deployment::Plan(c, topo, &plan_rng);
  for (NodeId n = 0; n < static_cast<NodeId>(topo.num_nodes()); ++n) {
    EXPECT_EQ(d.detected_locality[n], topo.LocalityOf(n));
  }
}

TEST(DeploymentTest, NodesNeededCountsServersAndDirectories) {
  SimConfig c = TinyConfig();
  c.scaleup_instances = 2;
  c.scaleup_extra_bits = 1;
  Rng rng(1);
  Topology topo(c, &rng);
  Rng plan_rng(2);
  Deployment d = Deployment::Plan(c, topo, &plan_rng);
  uint64_t placed = d.server_nodes.size();
  for (const auto& per_site : d.dir_nodes) {
    for (const auto& per_loc : per_site) placed += per_loc.size();
  }
  EXPECT_EQ(Deployment::NodesNeeded(c), placed);
  EXPECT_EQ(placed, 5u * (1 + 3 * 2));

  c.num_websites = INT_MAX;
  c.num_localities = INT_MAX;
  c.scaleup_instances = INT_MAX;
  EXPECT_EQ(Deployment::NodesNeeded(c), UINT64_MAX);
}

TEST(DeploymentTest, DeterministicGivenSeeds) {
  SimConfig c = TinyConfig();
  Rng t1(1), t2(1);
  Topology topo1(c, &t1), topo2(c, &t2);
  Rng p1(9), p2(9);
  Deployment a = Deployment::Plan(c, topo1, &p1);
  Deployment b = Deployment::Plan(c, topo2, &p2);
  EXPECT_EQ(a.server_nodes, b.server_nodes);
  EXPECT_EQ(a.dir_nodes, b.dir_nodes);
  EXPECT_EQ(a.client_pools, b.client_pools);
}

TEST(DeploymentTest, SmallLocalitiesGetSmallerPools) {
  // At paper scale the smallest locality cannot host S_co clients for
  // every active website; its pools must shrink (DESIGN.md Sec 4).
  SimConfig c;  // paper defaults: 5000 nodes, 100 sites, 6 active, S_co=100
  Rng rng(3);
  Topology topo(c, &rng);
  Rng plan_rng(4);
  Deployment d = Deployment::Plan(c, topo, &plan_rng);
  size_t smallest = SIZE_MAX, largest = 0;
  for (const auto& per_site : d.client_pools) {
    for (const auto& pool : per_site) {
      smallest = std::min(smallest, pool.size());
      largest = std::max(largest, pool.size());
    }
  }
  EXPECT_EQ(largest, static_cast<size_t>(c.max_content_overlay_size));
  EXPECT_LT(smallest, largest);
  EXPECT_GT(smallest, 0u);
}

}  // namespace
}  // namespace flower
