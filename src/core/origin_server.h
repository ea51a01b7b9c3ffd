// Origin web server of one website: the fallback provider when the P2P
// system misses, and the transfer source before overlays warm up.
#ifndef FLOWERCDN_CORE_ORIGIN_SERVER_H_
#define FLOWERCDN_CORE_ORIGIN_SERVER_H_

#include <cstdint>
#include <unordered_set>

#include "common/config.h"
#include "common/types.h"
#include "core/flower_messages.h"
#include "core/website.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace flower {

class OriginServer : public Peer {
 public:
  OriginServer(Simulator* sim, Network* network, Metrics* metrics,
               const Website* site, uint64_t object_size_bits);

  void Activate(NodeId node) { network_->RegisterPeer(this, node); }

  void HandleMessage(MessagePtr msg) override;

  const Website* site() const { return site_; }
  uint64_t queries_served() const { return queries_served_; }

 private:
  Simulator* sim_;
  Network* network_;
  Metrics* metrics_;
  const Website* site_;
  uint64_t object_size_bits_;
  std::unordered_set<ObjectId> objects_;
  uint64_t queries_served_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_ORIGIN_SERVER_H_
