// Squirrel baseline tests: home-node responsibility, downloader pointers,
// LRU capping and stale-pointer recovery.
#include "squirrel/squirrel_system.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

class SquirrelTest : public ::testing::Test {
 protected:
  SquirrelTest()
      : world_(TinyConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
  }

  NodeId PoolNode(size_t i) {
    return system_.deployment().client_pools[0][0][i];
  }
  ObjectId Obj(size_t rank) {
    return system_.catalog().site(0).objects[rank];
  }

  TestWorld world_;
  Metrics metrics_;
  SquirrelSystem system_;
};

TEST_F(SquirrelTest, FirstQueryGoesToServerAndCaches) {
  system_.SubmitQuery(PoolNode(0), 0, Obj(0));
  world_.sim()->Run();
  EXPECT_EQ(metrics_.server_hits(), 1u);
  EXPECT_EQ(metrics_.queries_served(), 1u);
  SquirrelNode* n = system_.FindNode(PoolNode(0));
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->cache().Contains(Obj(0)));
}

TEST_F(SquirrelTest, SecondRequesterServedFromFirstDownloader) {
  system_.SubmitQuery(PoolNode(0), 0, Obj(0));
  world_.sim()->Run();
  uint64_t server_before = metrics_.server_hits();
  system_.SubmitQuery(PoolNode(1), 0, Obj(0));
  world_.sim()->Run();
  EXPECT_EQ(metrics_.server_hits(), server_before);  // P2P hit via pointer
  EXPECT_TRUE(system_.FindNode(PoolNode(1))->cache().Contains(Obj(0)));
}

TEST_F(SquirrelTest, HomeDirectoryCapIsEnforced) {
  // Many downloaders of one object: the home directory keeps at most
  // `squirrel directory capacity` pointers.
  for (size_t i = 0; i < 8; ++i) {
    system_.SubmitQuery(PoolNode(i), 0, Obj(0));
    world_.sim()->Run();
  }
  // Find the home node: the ring member whose ID owns hash(object).
  ChordNode* home_node =
      system_.ring()->SuccessorOf(system_.ring()->space().Clamp(Obj(0)));
  auto* home = dynamic_cast<SquirrelNode*>(home_node);
  ASSERT_NE(home, nullptr);
  EXPECT_LE(home->HomeDirectorySize(Obj(0)), 4u);
  EXPECT_GT(home->HomeDirectorySize(Obj(0)), 0u);
}

TEST_F(SquirrelTest, StalePointerFallsBackGracefully) {
  system_.SubmitQuery(PoolNode(0), 0, Obj(3));
  world_.sim()->Run();
  // The only downloader dies; the next requester must still be served
  // (pointer purged, query re-processed, server fallback).
  system_.FindNode(PoolNode(0))->FailAbruptly();
  system_.SubmitQuery(PoolNode(1), 0, Obj(3));
  world_.sim()->Run();
  EXPECT_TRUE(system_.FindNode(PoolNode(1))->cache().Contains(Obj(3)));
}

TEST_F(SquirrelTest, LookupsTraverseTheDht) {
  // Squirrel queries pay multi-hop DHT routing: with dozens of nodes, the
  // mean lookup latency must far exceed one network hop.
  for (size_t i = 0; i < 20; ++i) {
    system_.SubmitQuery(PoolNode(i % 10), 0, Obj(i));
    world_.sim()->Run();
  }
  EXPECT_GT(metrics_.MeanLookupLatency(), 100.0);
}

TEST_F(SquirrelTest, NoLocalityAwarenessInTransfers) {
  // Seed an object at a peer of locality 0, then have peers from other
  // localities fetch it: transfers cross localities.
  system_.SubmitQuery(PoolNode(0), 0, Obj(5));
  world_.sim()->Run();
  const auto& pools = system_.deployment().client_pools[0];
  double far = 0;
  int count = 0;
  for (size_t l = 1; l < pools.size(); ++l) {
    if (pools[l].empty()) continue;
    system_.SubmitQuery(pools[l][0], 0, Obj(5));
    world_.sim()->Run();
    ++count;
  }
  ASSERT_GT(count, 0);
  far = metrics_.MeanTransferDistance();
  EXPECT_GT(far, 50.0);
}

}  // namespace
}  // namespace flower
