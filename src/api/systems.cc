#include "api/systems.h"

#include "api/run_result.h"
#include "common/hash.h"

namespace flower {

// --- FlowerAdapter ------------------------------------------------------------

FlowerAdapter::FlowerAdapter(const SystemContext& ctx)
    : config_(ctx.config),
      system_(*ctx.config, ctx.sim, ctx.network, ctx.topology, ctx.metrics) {
}

void FlowerAdapter::Setup() {
  system_.Setup();
  churn_ = std::make_unique<ChurnManager>(&system_, *config_,
                                          Mix64(config_->seed ^ 0xC0FFEE));
  churn_->Start();
}

void FlowerAdapter::SubmitQuery(NodeId node, WebsiteId website,
                                ObjectId object) {
  system_.SubmitQuery(node, website, object);
}

std::vector<PeerAddress> FlowerAdapter::ParticipantAddresses() const {
  return system_.ParticipantAddresses();
}

const Deployment& FlowerAdapter::deployment() const {
  return system_.deployment();
}

const WebsiteCatalog& FlowerAdapter::catalog() const {
  return system_.catalog();
}

bool FlowerAdapter::IsBlackedOut(NodeId node) const {
  return config_->churn_enabled && churn_ != nullptr &&
         churn_->IsBlackedOut(node);
}

bool FlowerAdapter::SupportsParallelShards() const {
  // Lane isolation holds while nothing mutates cross-locality shared
  // structures mid-run. Churn does: its promotions and failures change
  // the (global) D-ring membership, so it forces the cooperative
  // executor; the schedule (and output) is identical either way.
  return !config_->churn_enabled;
}

void FlowerAdapter::FillStats(RunResult* result) const {
  if (churn_ != nullptr) {
    result->churn_failures = churn_->failures();
    result->churn_leaves = churn_->leaves();
  }
  result->directory_promotions = system_.promotions();
  FlowerSystem::GossipStats gossip = system_.CollectGossipStats();
  result->mean_active_view = gossip.mean_view_size;
  result->mean_summaries_known = gossip.mean_summaries_known;
}

// --- SquirrelAdapter ----------------------------------------------------------

SquirrelAdapter::SquirrelAdapter(const SystemContext& ctx)
    : system_(*ctx.config, ctx.sim, ctx.network, ctx.topology, ctx.metrics) {
}

void SquirrelAdapter::Setup() { system_.Setup(); }

void SquirrelAdapter::SubmitQuery(NodeId node, WebsiteId website,
                                  ObjectId object) {
  system_.SubmitQuery(node, website, object);
}

std::vector<PeerAddress> SquirrelAdapter::ParticipantAddresses() const {
  return system_.ParticipantAddresses();
}

const Deployment& SquirrelAdapter::deployment() const {
  return system_.deployment();
}

const WebsiteCatalog& SquirrelAdapter::catalog() const {
  return system_.catalog();
}

// --- Registration -------------------------------------------------------------

void RegisterBuiltinSystems(SystemRegistry* registry) {
  registry->Register("flower", [](const SystemContext& ctx) {
    return std::unique_ptr<CdnSystem>(new FlowerAdapter(ctx));
  });
  registry->Register("squirrel", [](const SystemContext& ctx) {
    return std::unique_ptr<CdnSystem>(new SquirrelAdapter(ctx));
  });
}

}  // namespace flower
