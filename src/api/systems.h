// Built-in CdnSystem adapters over the two concrete systems. Most code
// never names these types — Experiment resolves them through the
// SystemRegistry ("flower", "squirrel") — but embedders
// that need typed access to the underlying system (e.g. an observer that
// reads FlowerSystem::promotions mid-run) can dynamic_cast the CdnSystem*
// they are handed to one of these.
#ifndef FLOWERCDN_API_SYSTEMS_H_
#define FLOWERCDN_API_SYSTEMS_H_

#include <memory>
#include <vector>

#include "api/cdn_system.h"
#include "core/churn.h"
#include "core/flower_system.h"
#include "squirrel/squirrel_system.h"

namespace flower {

/// Flower-CDN (paper Secs 3-5) plus its churn driver. The churn manager is
/// constructed and started in Setup, mirroring the paper's experiment
/// order; with churn_enabled=false it never fires.
class FlowerAdapter : public CdnSystem {
 public:
  explicit FlowerAdapter(const SystemContext& ctx);

  const char* key() const override { return "flower"; }
  const char* name() const override { return "Flower-CDN"; }
  void Setup() override;
  void SubmitQuery(NodeId node, WebsiteId website, ObjectId object) override;
  std::vector<PeerAddress> ParticipantAddresses() const override;
  const Deployment& deployment() const override;
  const WebsiteCatalog& catalog() const override;
  bool IsBlackedOut(NodeId node) const override;
  void FillStats(RunResult* result) const override;
  bool SupportsParallelShards() const override;

  FlowerSystem& system() { return system_; }
  ChurnManager* churn() { return churn_.get(); }

 private:
  const SimConfig* config_;
  FlowerSystem system_;
  std::unique_ptr<ChurnManager> churn_;
};

/// Squirrel (Iyer et al., PODC 2002), the paper's baseline, in its
/// directory strategy.
class SquirrelAdapter : public CdnSystem {
 public:
  explicit SquirrelAdapter(const SystemContext& ctx);

  const char* key() const override { return "squirrel"; }
  const char* name() const override { return "Squirrel"; }
  void Setup() override;
  void SubmitQuery(NodeId node, WebsiteId website, ObjectId object) override;
  std::vector<PeerAddress> ParticipantAddresses() const override;
  const Deployment& deployment() const override;
  const WebsiteCatalog& catalog() const override;

  SquirrelSystem& system() { return system_; }

 private:
  SquirrelSystem system_;
};

}  // namespace flower

#endif  // FLOWERCDN_API_SYSTEMS_H_
