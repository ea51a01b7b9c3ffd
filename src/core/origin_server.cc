#include "core/origin_server.h"

#include <cassert>

#include "common/logging.h"

namespace flower {

OriginServer::OriginServer(Simulator* sim, Network* network, Metrics* metrics,
                           const Website* site, uint64_t object_size_bits)
    : sim_(sim),
      network_(network),
      metrics_(metrics),
      site_(site),
      object_size_bits_(object_size_bits) {
  assert(site != nullptr);
  objects_.insert(site->objects.begin(), site->objects.end());
}

void OriginServer::HandleMessage(MessagePtr msg) {
  if (msg->type() != MessageKind::kFlowerQuery) {
    FLOWER_LOG(Warn) << "origin server got non-query message";
    return;
  }
  auto query = MessageCast<FlowerQueryMsg>(std::move(msg));
  if (objects_.find(query->object) == objects_.end()) {
    // Unknown object: report not-found to the client (should not happen
    // with a well-formed workload).
    auto nf = std::make_unique<NotFoundMsg>(query->object,
                                            query->website_hash,
                                            query->stage);
    network_->Send(this, query->client, std::move(nf));
    return;
  }
  ++queries_served_;
  if (metrics_ != nullptr) {
    metrics_->OnLookupResolved(query->submit_time, sim_->Now(),
                               /*provider_is_server=*/true);
    metrics_->OnServerHit();
  }
  auto serve = std::make_unique<ServeMsg>(
      query->object, query->website, query->website_hash, address(),
      /*from_server=*/true, query->submit_time,
      object_size_bits_);
  network_->Send(this, query->client, std::move(serve));
}

}  // namespace flower
