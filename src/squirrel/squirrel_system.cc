#include "squirrel/squirrel_system.h"

#include <cassert>

#include "common/hash.h"
#include "common/logging.h"

namespace flower {

namespace {
ChordConfig MakeChordConfig(const SimConfig& config) {
  ChordConfig cc;
  cc.id_bits = config.chord_id_bits;
  return cc;
}
}  // namespace

SquirrelSystem::SquirrelSystem(const SimConfig& config, Simulator* sim,
                               Network* network, const Topology* topology,
                               Metrics* metrics)
    : config_(config),
      sim_(sim),
      network_(network),
      topology_(topology),
      metrics_(metrics),
      scheme_(config.chord_id_bits, config.locality_id_bits,
              config.scaleup_extra_bits),
      ring_(MakeChordConfig(config), metrics),
      catalog_(std::make_unique<WebsiteCatalog>(config, scheme_)),
      // Same construction order as FlowerSystem, so the same master seed
      // yields an identical deployment (and thus an identical workload).
      deployment_(Deployment::Plan(config, *topology, sim->rng())),
      rng_(sim->rng()->Next()) {
  ctx_.sim = sim_;
  ctx_.network = network_;
  ctx_.ring = &ring_;
  ctx_.config = &config_;
  ctx_.catalog = catalog_.get();
  ctx_.metrics = metrics_;
}

SquirrelSystem::~SquirrelSystem() = default;

void SquirrelSystem::Setup() {
  servers_.reserve(static_cast<size_t>(catalog_->size()));
  for (int w = 0; w < catalog_->size(); ++w) {
    Website& site = catalog_->mutable_site(static_cast<WebsiteId>(w));
    auto server = std::make_unique<OriginServer>(
        sim_, network_, metrics_, &site, config_.object_size_bits);
    server->Activate(deployment_.server_nodes[static_cast<size_t>(w)]);
    site.server_addr = server->address();
    servers_.push_back(std::move(server));
  }
}

void SquirrelSystem::SubmitQuery(NodeId node, WebsiteId website,
                                 ObjectId object) {
  auto it = nodes_.find(node);
  SquirrelNode* peer;
  if (it != nodes_.end() && it->second->alive()) {
    peer = it->second.get();
  } else {
    // Lazy join with a node ID derived from the address; probe forward on
    // the (astronomically unlikely) identifier collision.
    Key id = ring_.space().Clamp(Mix64(node));
    while (ring_.Contains(id)) id = ring_.space().Add(id, 1);
    auto fresh = std::make_unique<SquirrelNode>(&ctx_, id, rng_.Next());
    if (!fresh->Start(node)) {
      FLOWER_LOG(Warn) << "squirrel node failed to join at node " << node;
      return;
    }
    peer = fresh.get();
    nodes_[node] = std::move(fresh);
  }
  peer->RequestObject(&catalog_->site(website), object);
}

SquirrelNode* SquirrelSystem::FindNode(NodeId node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<PeerAddress> SquirrelSystem::ParticipantAddresses() const {
  std::vector<PeerAddress> out;
  out.reserve(nodes_.size());
  for (const auto& [node, peer] : nodes_) {
    if (peer->alive()) out.push_back(peer->address());
  }
  // nodes_ is a hash map: return the harvest in address order so no
  // caller can inherit bucket order (detlint rule unordered-iteration).
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace flower
