#include "core/origin_server.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

class CollectingPeer : public Peer {
 public:
  void HandleMessage(MessagePtr msg) override {
    if (auto* s = dynamic_cast<ServeMsg*>(msg.get())) {
      serves.push_back(*s);
      return;
    }
    if (dynamic_cast<NotFoundMsg*>(msg.get()) != nullptr) {
      ++not_found;
    }
  }
  std::vector<ServeMsg> serves;
  int not_found = 0;
};

class OriginServerTest : public ::testing::Test {
 protected:
  OriginServerTest() : world_(TinyConfig()), metrics_(world_.config()) {
    DRingIdScheme scheme(world_.config().chord_id_bits,
                         world_.config().locality_id_bits, 0);
    catalog_ = std::make_unique<WebsiteCatalog>(world_.config(), scheme);
    server_ = std::make_unique<OriginServer>(
        world_.sim(), world_.network(), &metrics_, &catalog_->site(0),
        world_.config().object_size_bits);
    server_->Activate(0);
    world_.network()->RegisterPeer(&client_, 1);
  }

  std::unique_ptr<FlowerQueryMsg> Query(ObjectId obj) {
    auto q = std::make_unique<FlowerQueryMsg>(
        0, catalog_->site(0).dring_hash, obj, client_.address(), 0,
        world_.sim()->Now(), QueryStage::kToServer);
    return q;
  }

  TestWorld world_;
  Metrics metrics_;
  std::unique_ptr<WebsiteCatalog> catalog_;
  std::unique_ptr<OriginServer> server_;
  CollectingPeer client_;
};

TEST_F(OriginServerTest, ServesItsOwnObjects) {
  ObjectId obj = catalog_->site(0).objects[5];
  world_.network()->Send(&client_, server_->address(), Query(obj));
  world_.sim()->Run();
  ASSERT_EQ(client_.serves.size(), 1u);
  EXPECT_EQ(client_.serves[0].object, obj);
  EXPECT_TRUE(client_.serves[0].from_server);
  EXPECT_EQ(client_.serves[0].provider, server_->address());
  EXPECT_EQ(server_->queries_served(), 1u);
  EXPECT_EQ(metrics_.server_hits(), 1u);
}

TEST_F(OriginServerTest, RejectsForeignObjects) {
  world_.network()->Send(&client_, server_->address(),
                         Query(/*not an object=*/0xDEADBEEF));
  world_.sim()->Run();
  EXPECT_EQ(client_.serves.size(), 0u);
  EXPECT_EQ(client_.not_found, 1);
  EXPECT_EQ(server_->queries_served(), 0u);
}

TEST_F(OriginServerTest, LookupLatencyMeasuredAtServerArrival) {
  ObjectId obj = catalog_->site(0).objects[0];
  SimTime latency = world_.network()->Latency(client_.address(),
                                              server_->address());
  world_.network()->Send(&client_, server_->address(), Query(obj));
  world_.sim()->Run();
  EXPECT_DOUBLE_EQ(metrics_.MeanLookupLatency(),
                   static_cast<double>(latency));
}

TEST_F(OriginServerTest, ServeMessageHasTransferClassAndObjectSize) {
  ObjectId obj = catalog_->site(0).objects[1];
  world_.network()->Send(&client_, server_->address(), Query(obj));
  world_.sim()->Run();
  uint64_t transfer_bits =
      world_.network()->TotalBits(TrafficClass::kTransfer);
  EXPECT_GE(transfer_bits, world_.config().object_size_bits);
}

}  // namespace
}  // namespace flower
