#include "core/peer_table.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace flower {
namespace {

struct FakePeer {
  explicit FakePeer(NodeId n) : id(n) {}
  NodeId id;
};

TEST(PeerTableTest, InsertFindTake) {
  PeerTable<FakePeer> table;
  EXPECT_TRUE(table.empty());
  FakePeer* a = table.Insert(7, std::make_unique<FakePeer>(7));
  FakePeer* b = table.Insert(3, std::make_unique<FakePeer>(3));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(7), a);
  EXPECT_EQ(table.Find(3), b);
  EXPECT_EQ(table.Find(99), nullptr);
  std::unique_ptr<FakePeer> out = table.Take(7);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out.get(), a);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Take(7), nullptr);
}

// The contract FlowerSystem leans on: raw Peer* handed to the network
// layer stay valid across arbitrary join/leave churn, even though slots
// compact via swap-with-last underneath.
TEST(PeerTableTest, PointersStableAcrossChurn) {
  PeerTable<FakePeer> table;
  std::vector<FakePeer*> raw(100);
  for (NodeId n = 0; n < 100; ++n) {
    raw[n] = table.Insert(n, std::make_unique<FakePeer>(n));
  }
  // Remove every third peer (forces many swap-with-last moves).
  for (NodeId n = 0; n < 100; n += 3) table.Take(n);
  for (NodeId n = 0; n < 100; ++n) {
    if (n % 3 == 0) {
      EXPECT_EQ(table.Find(n), nullptr);
    } else {
      ASSERT_EQ(table.Find(n), raw[n]) << "peer " << n << " moved";
      EXPECT_EQ(table.Find(n)->id, n);
    }
  }
}

// Dense-slot invariant: after any removal sequence the table holds
// exactly the live population, the node-order walk visits each live peer
// once in ascending NodeId order whatever the slot order, and a node
// re-inserted after removal is reachable again.
TEST(PeerTableTest, SlotsStayDenseAndConsistentUnderChurn) {
  PeerTable<FakePeer> table;
  for (NodeId n = 0; n < 50; ++n) {
    table.Insert(n, std::make_unique<FakePeer>(n));
  }
  // Interleave removals and re-joins, including the last slot (no-swap
  // path) and slot 0 (max-distance swap).
  table.Take(49);
  table.Take(0);
  table.Take(25);
  table.Insert(0, std::make_unique<FakePeer>(0));
  table.Take(10);
  EXPECT_EQ(table.size(), 47u);
  std::vector<NodeId> seen;
  table.ForEachByNode([&seen](const FakePeer* p) { seen.push_back(p->id); });
  EXPECT_EQ(seen.size(), table.size());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end(),
                                 std::greater_equal<NodeId>()) == seen.end())
      << "walk not in strictly ascending node order";
  for (NodeId n : {49u, 25u, 10u}) {
    EXPECT_FALSE(table.Contains(n));
  }
  EXPECT_TRUE(table.Contains(0));
  // Every live node is findable through the index and agrees with its slot.
  for (NodeId n : seen) {
    FakePeer* p = table.Find(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, n);
  }
}

// The NodeId index is a flat vector grown to the largest NodeId
// inserted: lookups past its end, and at NodeIds whose peer was taken,
// must read as vacant, and a taken NodeId must be reusable.
TEST(PeerTableTest, LookupsAboveEveryInsertedNodeAreVacant) {
  PeerTable<FakePeer> table;
  EXPECT_FALSE(table.Contains(0));
  EXPECT_EQ(table.Find(0), nullptr);
  table.Insert(5, std::make_unique<FakePeer>(5));
  table.Insert(2, std::make_unique<FakePeer>(2));
  for (NodeId n : {6u, 7u, 1000u, 1u << 20, kInvalidNode}) {
    EXPECT_FALSE(table.Contains(n)) << n;
    EXPECT_EQ(table.Find(n), nullptr) << n;
    EXPECT_EQ(table.Take(n), nullptr) << n;
  }
  EXPECT_EQ(table.size(), 2u);
}

TEST(PeerTableTest, TakenNodeIsVacantThenReinsertable) {
  PeerTable<FakePeer> table;
  table.Insert(4, std::make_unique<FakePeer>(4));
  table.Insert(9, std::make_unique<FakePeer>(9));
  // Take the highest NodeId: the index keeps its size but must not
  // answer for the taken node.
  ASSERT_NE(table.Take(9), nullptr);
  EXPECT_FALSE(table.Contains(9));
  EXPECT_EQ(table.Find(9), nullptr);
  EXPECT_EQ(table.Take(9), nullptr);
  ASSERT_NE(table.Take(4), nullptr);
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.Contains(4));

  // A new peer at a taken NodeId is found, and the other is untouched.
  FakePeer* again = table.Insert(9, std::make_unique<FakePeer>(9));
  EXPECT_TRUE(table.Contains(9));
  EXPECT_EQ(table.Find(9), again);
  EXPECT_FALSE(table.Contains(4));
  FakePeer* four = table.Insert(4, std::make_unique<FakePeer>(4));
  EXPECT_EQ(table.Find(4), four);
  EXPECT_EQ(table.Find(9), again);
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace flower
