#include "core/flower_system.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace flower {

namespace {
ChordConfig MakeChordConfig(const SimConfig& config) {
  ChordConfig cc;
  cc.id_bits = config.chord_id_bits;
  return cc;
}
}  // namespace

FlowerSystem::FlowerSystem(const SimConfig& config, Simulator* sim,
                           Network* network, const Topology* topology,
                           Metrics* metrics)
    : config_(config),
      sim_(sim),
      network_(network),
      topology_(topology),
      metrics_(metrics),
      scheme_(config.chord_id_bits, config.locality_id_bits,
              config.scaleup_extra_bits),
      dring_(MakeChordConfig(config), metrics),
      catalog_(std::make_unique<WebsiteCatalog>(config, scheme_)),
      deployment_(Deployment::Plan(config, *topology, sim->rng())),
      rng_(sim->rng()->Next()) {
  ctx_.sim = sim_;
  ctx_.network = network_;
  ctx_.dring = &dring_;
  ctx_.scheme = &scheme_;
  ctx_.config = &config_;
  ctx_.catalog = catalog_.get();
  ctx_.metrics = metrics_;
  ctx_.system = this;
}

FlowerSystem::~FlowerSystem() = default;

void FlowerSystem::Setup() {
  // Origin servers.
  servers_.reserve(static_cast<size_t>(catalog_->size()));
  for (int w = 0; w < catalog_->size(); ++w) {
    Website& site = catalog_->mutable_site(static_cast<WebsiteId>(w));
    auto server = std::make_unique<OriginServer>(
        sim_, network_, metrics_, &site, config_.object_size_bits);
    server->Activate(deployment_.server_nodes[static_cast<size_t>(w)]);
    site.server_addr = server->address();
    servers_.push_back(std::move(server));
  }
  // Stable D-ring: `scaleup_instances` directory peers per (website,
  // locality), empty directories (paper Sec 6.1 / Sec 5.3).
  int instances = std::max(config_.scaleup_instances, 1);
  for (int w = 0; w < catalog_->size(); ++w) {
    const Website& site = catalog_->site(static_cast<WebsiteId>(w));
    for (int l = 0; l < config_.num_localities; ++l) {
      for (int i = 0; i < instances; ++i) {
        NodeId node = deployment_.dir_nodes[static_cast<size_t>(w)]
                                           [static_cast<size_t>(l)]
                                           [static_cast<size_t>(i)];
        DirectoryPeer* dir =
            CreateDirectory(&site, static_cast<LocalityId>(l),
                            static_cast<uint32_t>(i), node);
        if (dir == nullptr) {
          FLOWER_LOG(Warn) << "failed to start directory for site " << w
                           << " locality " << l << " instance " << i;
        }
      }
    }
  }
}

DirectoryPeer* FlowerSystem::CreateDirectory(const Website* site,
                                             LocalityId locality,
                                             uint32_t instance, NodeId node) {
  auto dir = std::make_unique<DirectoryPeer>(&ctx_, site, locality, instance,
                                             rng_.Next());
  if (!dir->Start(node)) return nullptr;
  return directories_.Insert(node, std::move(dir));
}

void FlowerSystem::SubmitQuery(NodeId node, WebsiteId website,
                               ObjectId object) {
  // Directory peers are participants too.
  if (DirectoryPeer* dir = directories_.Find(node)) {
    if (dir->alive()) {
      dir->RequestObject(object);
      return;
    }
    graveyard_.push_back(directories_.Take(node));
    sim_->Schedule(0, [this]() { graveyard_.clear(); });
  }
  if (ContentPeer* existing = content_peers_.Find(node)) {
    if (existing->alive()) {
      existing->RequestObject(object);
      return;
    }
    // The peer churned out earlier; the node comes back as a new client.
    graveyard_.push_back(content_peers_.Take(node));
    sim_->Schedule(0, [this]() { graveyard_.clear(); });
  }
  const Website* site = &catalog_->site(website);
  LocalityId locality = deployment_.detected_locality[node];
  auto peer = std::make_unique<ContentPeer>(&ctx_, site, locality,
                                            rng_.Next());
  peer->Activate(node);
  ContentPeer* raw = content_peers_.Insert(node, std::move(peer));
  raw->RequestObject(object);
}

PeerAddress FlowerSystem::BootstrapDirectory(Rng* rng) const {
  // Model of the bootstrap service every P2P deployment needs: returns a
  // random live directory peer.
  for (int attempt = 0; attempt < 8; ++attempt) {
    WebsiteId w = static_cast<WebsiteId>(rng->Index(
        static_cast<size_t>(catalog_->size())));
    LocalityId l = static_cast<LocalityId>(
        rng->Index(static_cast<size_t>(config_.num_localities)));
    DirectoryPeer* dir = FindDirectory(w, l);
    if (dir != nullptr && dir->alive()) return dir->address();
  }
  ChordNode* any = dring_.AnyNode();
  return any == nullptr ? kInvalidAddress : any->address();
}

DirectoryPeer* FlowerSystem::FindDirectory(WebsiteId website,
                                           LocalityId locality,
                                           uint32_t instance) const {
  const Website& site = catalog_->site(website);
  Key id = scheme_.MakeDirectoryId(site.dring_hash, locality, instance);
  ChordNode* node = dring_.Find(id);
  return dynamic_cast<DirectoryPeer*>(node);
}

ContentPeer* FlowerSystem::FindContentPeer(NodeId node) const {
  return content_peers_.Find(node);
}

OriginServer* FlowerSystem::FindServer(WebsiteId website) const {
  if (website >= servers_.size()) return nullptr;
  return servers_[website].get();
}

// PeerTable slot order is churn-history-dependent (swap-with-last), so
// every harvest below walks the tables' NodeId index, which ascends by
// node. Consumers draw RNGs per element (churn) or emit in element order
// (stats, tests): handing them slot-order lists would make behavior
// depend on removal history — the same class of bug `tools/detlint.py`
// (rule unordered-iteration) exists to keep out of hash-map walks.

std::vector<PeerAddress> FlowerSystem::ParticipantAddresses() const {
  // A peer's address is its node, so each walk ascends by address; the
  // two runs merge in one pass.
  std::vector<PeerAddress> out;
  content_peers_.ForEachByNode([&out](const ContentPeer* peer) {
    if (peer->alive() && peer->joined()) out.push_back(peer->address());
  });
  const auto content_end = static_cast<std::ptrdiff_t>(out.size());
  directories_.ForEachByNode([&out](const DirectoryPeer* dir) {
    if (dir->alive()) out.push_back(dir->address());
  });
  std::inplace_merge(out.begin(), out.begin() + content_end, out.end());
  return out;
}

std::vector<ContentPeer*> FlowerSystem::LiveContentPeers() const {
  std::vector<ContentPeer*> out;
  content_peers_.ForEachByNode([&out](ContentPeer* peer) {
    if (peer->alive()) out.push_back(peer);
  });
  return out;
}

std::vector<DirectoryPeer*> FlowerSystem::LiveDirectories() const {
  std::vector<DirectoryPeer*> out;
  directories_.ForEachByNode([&out](DirectoryPeer* dir) {
    if (dir->alive()) out.push_back(dir);
  });
  return out;
}

FlowerSystem::GossipStats FlowerSystem::CollectGossipStats() const {
  GossipStats out;
  uint64_t view_sum = 0;
  uint64_t summaries_sum = 0;
  for (ContentPeer* p : LiveContentPeers()) {
    if (!p->joined()) continue;
    ++out.joined_peers;
    view_sum += p->view().size();
    for (const ViewEntry& e : p->view().entries()) {
      if (e.summary) ++summaries_sum;
    }
  }
  if (out.joined_peers > 0) {
    double n = static_cast<double>(out.joined_peers);
    out.mean_view_size = static_cast<double>(view_sum) / n;
    out.mean_summaries_known = static_cast<double>(summaries_sum) / n;
  }
  return out;
}

PeerAddress FlowerSystem::PromoteReplacement(ContentPeer* candidate,
                                             Key dir_key) {
  assert(candidate != nullptr);
  // Did someone win the race already? (Sec 5.2: "if the directory position
  // has already been appropriated by another content peer")
  ChordNode* existing = dring_.Find(dir_key);
  if (existing != nullptr) return existing->address();

  uint64_t website_id = scheme_.WebsiteIdOf(dir_key);
  int ws = catalog_->FindByDRingHash(website_id);
  if (ws < 0) return kInvalidAddress;
  const Website* site = &catalog_->site(static_cast<WebsiteId>(ws));
  LocalityId locality = scheme_.LocalityOf(dir_key);
  uint32_t instance = scheme_.InstanceOf(dir_key);
  NodeId node = candidate->node();

  ContentPeer::PromotionState state = candidate->PrepareForPromotion();
  auto dir = std::make_unique<DirectoryPeer>(&ctx_, site, locality, instance,
                                             rng_.Next());
  bool ok = dir->Start(node);
  assert(ok && "directory position raced within one event");
  (void)ok;
  dir->SeedFromPromotion(std::move(state.content), std::move(state.view));
  ++promotions_;

  std::unique_ptr<ContentPeer> buried = content_peers_.Take(node);
  assert(buried != nullptr);
  graveyard_.push_back(std::move(buried));
  PeerAddress new_addr = dir->address();
  directories_.Insert(node, std::move(dir));
  sim_->Schedule(0, [this]() { graveyard_.clear(); });
  return new_addr;
}

bool FlowerSystem::PromoteWithHandoff(
    ContentPeer* candidate, std::unique_ptr<DirectoryHandoffMsg> handoff) {
  assert(candidate != nullptr && handoff != nullptr);
  Key dir_key = handoff->dir_key;
  if (dring_.Find(dir_key) != nullptr) return false;  // already replaced
  PeerAddress result = PromoteReplacement(candidate, dir_key);
  if (result != candidate->address()) return false;
  // PromoteReplacement moved the candidate to the graveyard; the new
  // directory lives at the same node.
  DirectoryPeer* dir = directories_.Find(candidate->node());
  if (dir != nullptr) dir->InstallHandoff(*handoff);
  return true;
}

}  // namespace flower
