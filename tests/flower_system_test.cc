// End-to-end behavior of the Flower-CDN core: query processing
// (Algorithm 3), client admission, caching, index updates via push, and
// the local query paths of content peers.
#include "core/flower_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "core/flower_messages.h"
#include "test_util.h"

namespace flower {
namespace {

class FlowerSystemTest : public ::testing::Test {
 protected:
  FlowerSystemTest()
      : world_(TinyConfig()),
        metrics_(world_.config()),
        system_(world_.config(), world_.sim(), world_.network(),
                world_.topology(), &metrics_) {
    system_.Setup();
  }

  NodeId PoolNode(WebsiteId ws, LocalityId loc, size_t i) {
    return system_.deployment().client_pools[ws][loc][i];
  }
  const Website& Site(WebsiteId w) { return system_.catalog().site(w); }

  TestWorld world_;
  Metrics metrics_;
  FlowerSystem system_;
};

TEST_F(FlowerSystemTest, FirstQueryServedFromOriginServer) {
  NodeId client = PoolNode(0, 0, 0);
  ObjectId obj = Site(0).objects[3];
  system_.SubmitQuery(client, 0, obj);
  world_.sim()->RunFor(kMinute);

  EXPECT_EQ(metrics_.queries_submitted(), 1u);
  EXPECT_EQ(metrics_.queries_served(), 1u);
  EXPECT_EQ(metrics_.server_hits(), 1u);  // cold start: nothing cached
  EXPECT_DOUBLE_EQ(metrics_.CumulativeHitRatio(), 0.0);

  ContentPeer* peer = system_.FindContentPeer(client);
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->joined());
  EXPECT_TRUE(peer->content().Contains(obj));
}

TEST_F(FlowerSystemTest, ClientIsAdmittedToDirectoryIndex) {
  NodeId client = PoolNode(0, 1, 0);
  ObjectId obj = Site(0).objects[0];
  system_.SubmitQuery(client, 0, obj);
  world_.sim()->RunFor(kMinute);

  DirectoryPeer* dir = system_.FindDirectory(0, 1);
  ASSERT_NE(dir, nullptr);
  EXPECT_TRUE(dir->IndexHas(client));
  const std::vector<ObjectSlot>* objs = dir->IndexObjectsOf(client);
  ASSERT_NE(objs, nullptr);
  // Optimistic add (Sec 3.4); the index stores the site-local slot.
  EXPECT_TRUE(std::binary_search(objs->begin(), objs->end(),
                                 Site(0).SlotOf(obj)));

  ContentPeer* peer = system_.FindContentPeer(client);
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->directory(), dir->address());
}

TEST_F(FlowerSystemTest, SecondClientServedFromFirstViaDirectory) {
  NodeId a = PoolNode(0, 0, 0);
  NodeId b = PoolNode(0, 0, 1);
  ObjectId obj = Site(0).objects[7];
  system_.SubmitQuery(a, 0, obj);
  world_.sim()->RunFor(kMinute);
  uint64_t server_before = metrics_.server_hits();

  system_.SubmitQuery(b, 0, obj);
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.server_hits(), server_before);  // P2P hit
  EXPECT_DOUBLE_EQ(metrics_.CumulativeHitRatio(), 0.5);
  ContentPeer* pb = system_.FindContentPeer(b);
  ASSERT_NE(pb, nullptr);
  EXPECT_TRUE(pb->content().Contains(obj));
}

TEST_F(FlowerSystemTest, LocalCacheHitNeverBecomesAQuery) {
  NodeId a = PoolNode(0, 0, 0);
  ObjectId obj = Site(0).objects[7];
  system_.SubmitQuery(a, 0, obj);
  world_.sim()->RunFor(kMinute);
  uint64_t queries = metrics_.queries_submitted();
  system_.SubmitQuery(a, 0, obj);  // already cached
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.queries_submitted(), queries);
}

TEST_F(FlowerSystemTest, CrossLocalityRescueViaDirectorySummaries) {
  // Peer in locality 0 fetches an object; after the directory summary
  // reaches the neighbor directory, a peer of a neighboring locality must
  // be served from locality 0 instead of the server.
  NodeId a = PoolNode(0, 0, 0);
  ObjectId obj = Site(0).objects[11];
  system_.SubmitQuery(a, 0, obj);
  world_.sim()->RunFor(kMinute);

  // Find a locality whose directory holds a summary from d(0,0).
  DirectoryPeer* d00 = system_.FindDirectory(0, 0);
  ASSERT_NE(d00, nullptr);
  DirectoryPeer* neighbor = nullptr;
  for (int l = 1; l < world_.config().num_localities; ++l) {
    DirectoryPeer* d = system_.FindDirectory(0, static_cast<LocalityId>(l));
    if (d != nullptr && d->HasSummaryFrom(d00->id())) {
      neighbor = d;
      break;
    }
  }
  ASSERT_NE(neighbor, nullptr) << "no neighbor received a summary";

  uint64_t server_before = metrics_.server_hits();
  NodeId b = PoolNode(0, neighbor->locality(), 0);
  system_.SubmitQuery(b, 0, obj);
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.server_hits(), server_before)
      << "query should have been rescued by the neighbor overlay";
}

TEST_F(FlowerSystemTest, OverlayCapacityIsEnforced) {
  SimConfig c = TinyConfig();
  c.max_content_overlay_size = 3;
  TestWorld world(c);
  Metrics metrics(c);
  FlowerSystem system(c, world.sim(), world.network(), world.topology(),
                      &metrics);
  system.Setup();

  // The deployment caps pools at S_co, so draw the overflow clients from
  // another website's pool in the same locality (any node of locality 0
  // may query website 0).
  const auto& pool = system.deployment().client_pools[0][0];
  const auto& spare = system.deployment().client_pools[1][0];
  ASSERT_GE(pool.size(), 3u);
  ASSERT_GE(spare.size(), 2u);
  std::vector<NodeId> clients(pool.begin(), pool.begin() + 3);
  clients.push_back(spare[0]);
  clients.push_back(spare[1]);
  for (size_t i = 0; i < clients.size(); ++i) {
    system.SubmitQuery(clients[i], 0,
                       system.catalog().site(0).objects[i]);
    world.sim()->RunFor(kMinute);
  }
  DirectoryPeer* dir = system.FindDirectory(0, 0);
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(dir->IndexSize(), 3u);
  EXPECT_TRUE(dir->OverlayFull());
  // Clients 4 and 5 were served but not admitted.
  ContentPeer* p4 = system.FindContentPeer(clients[3]);
  ASSERT_NE(p4, nullptr);
  EXPECT_FALSE(p4->joined());
  EXPECT_EQ(p4->content().size(), 1u);  // still got the object
}

TEST_F(FlowerSystemTest, MemberQueriesBypassTheDRing) {
  NodeId a = PoolNode(0, 0, 0);
  system_.SubmitQuery(a, 0, Site(0).objects[0]);
  world_.sim()->RunFor(kMinute);
  ContentPeer* peer = system_.FindContentPeer(a);
  ASSERT_TRUE(peer->joined());

  // A member's next query goes to its directory (or a view contact), never
  // through D-ring routing: check that no DHT-routed query reaches a
  // directory of a *different* website (which would indicate ring routing),
  // and that the query resolves.
  uint64_t before = metrics_.queries_served();
  system_.SubmitQuery(a, 0, Site(0).objects[20]);
  world_.sim()->RunFor(kMinute);
  EXPECT_EQ(metrics_.queries_served(), before + 1);
}

TEST_F(FlowerSystemTest, PushUpdatesDirectoryIndex) {
  NodeId a = PoolNode(0, 0, 0);
  // First query admits the client with its first object.
  system_.SubmitQuery(a, 0, Site(0).objects[0]);
  world_.sim()->RunFor(kMinute);
  // More fetches trigger pushes (threshold 0.1 pushes aggressively early).
  for (int i = 1; i <= 4; ++i) {
    system_.SubmitQuery(a, 0, Site(0).objects[i]);
    world_.sim()->RunFor(kMinute);
  }
  DirectoryPeer* dir = system_.FindDirectory(0, 0);
  const std::vector<ObjectSlot>* objs = dir->IndexObjectsOf(a);
  ASSERT_NE(objs, nullptr);
  EXPECT_GE(objs->size(), 4u);
}

TEST_F(FlowerSystemTest, DirectoryPeerCanAlsoRequestObjects) {
  DirectoryPeer* dir = system_.FindDirectory(0, 2);
  ASSERT_NE(dir, nullptr);
  ObjectId obj = Site(0).objects[9];
  dir->RequestObject(obj);
  world_.sim()->RunFor(kMinute);
  EXPECT_TRUE(dir->own_content().Contains(obj));
  EXPECT_EQ(metrics_.queries_served(), 1u);
}

TEST_F(FlowerSystemTest, DeterministicAcrossIdenticalRuns) {
  SimConfig c = TinyConfig();
  auto run = [&c]() {
    TestWorld world(c, 99);
    Metrics metrics(c);
    FlowerSystem system(c, world.sim(), world.network(), world.topology(),
                        &metrics);
    system.Setup();
    const auto& pool = system.deployment().client_pools[0][0];
    for (size_t i = 0; i < 4; ++i) {
      system.SubmitQuery(pool[i], 0, system.catalog().site(0).objects[i]);
    }
    world.sim()->RunFor(kMinute);
    return std::make_tuple(world.sim()->events_processed(),
                           metrics.queries_served(),
                           metrics.MeanLookupLatency());
  };
  EXPECT_EQ(run(), run());
}

// Records the contacts of the welcome a directory sends the client it
// admits, in wire order.
class WelcomeProbe : public Peer {
 public:
  void HandleMessage(MessagePtr msg) override {
    if (msg->type() != MessageKind::kWelcome) return;
    ++welcomes;
    const auto welcome = MessageCast<WelcomeMsg>(std::move(msg));
    for (const ViewEntry& e : welcome->contacts) contacts.push_back(e.addr);
  }

  int welcomes = 0;
  std::vector<PeerAddress> contacts;
};

// A directory welcomes a new client with min(other members, V_gossip)
// contacts, strictly ascending by address and never the client itself.
// The contacts are the set the directory drew before it sent them in
// ascending order (recorded from the draw-order sender at seed 42): the
// order changed, the draw did not.
TEST(DirectoryWelcomeTest, ContactsAscendAndKeepTheDrawnSet) {
  SimConfig c = TinyConfig();
  c.view_size = 5;
  TestWorld world(c, 42);
  Metrics metrics(c);
  FlowerSystem system(c, world.sim(), world.network(), world.topology(),
                      &metrics);
  system.Setup();
  struct Case {
    WebsiteId site;
    size_t members;  // admitted before the probe
    std::vector<PeerAddress> drawn;
  };
  // Site 0 draws 5 of 12 other members; site 1 sends all 3.
  const std::vector<Case> cases = {{0, 12, {105, 163, 166, 240, 267}},
                                   {1, 3, {6, 65, 263}}};
  for (const Case& tc : cases) {
    const std::vector<NodeId>& pool =
        system.deployment().client_pools[tc.site][0];
    ASSERT_GT(pool.size(), tc.members);
    const Website& site = system.catalog().site(tc.site);
    for (size_t i = 0; i < tc.members; ++i) {
      system.SubmitQuery(pool[i], tc.site, site.objects[i]);
      world.sim()->RunFor(kMinute);
    }
    WelcomeProbe probe;
    world.network()->RegisterPeer(&probe, pool[tc.members]);
    DirectoryPeer* dir = system.FindDirectory(tc.site, 0);
    ASSERT_NE(dir, nullptr);
    world.network()->Send(
        &probe, dir->address(),
        std::make_unique<FlowerQueryMsg>(
            site.index, site.dring_hash, site.objects[tc.members],
            probe.address(), 0, world.sim()->Now(),
            QueryStage::kToDirectory));
    world.sim()->RunFor(kMinute);
    world.network()->UnregisterPeer(&probe);

    ASSERT_EQ(probe.welcomes, 1);
    ASSERT_TRUE(dir->IndexHas(probe.address()));
    const size_t others = dir->IndexSize() - 1;
    EXPECT_EQ(others, tc.members);
    EXPECT_EQ(probe.contacts.size(),
              std::min(others, static_cast<size_t>(c.view_size)));
    EXPECT_TRUE(std::adjacent_find(probe.contacts.begin(),
                                   probe.contacts.end(),
                                   std::greater_equal<PeerAddress>()) ==
                probe.contacts.end())
        << "contacts not strictly ascending";
    for (PeerAddress a : probe.contacts) {
      EXPECT_NE(a, probe.address());
      EXPECT_TRUE(dir->IndexHas(a)) << a;
    }
    std::vector<PeerAddress> as_set = probe.contacts;
    std::sort(as_set.begin(), as_set.end());
    EXPECT_EQ(as_set, tc.drawn);
  }
}

}  // namespace
}  // namespace flower
