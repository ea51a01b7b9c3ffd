// Experiment API v2, system side: the CdnSystem interface every runnable
// system implements, and the name-keyed SystemRegistry that Experiment
// resolves `system=flower|squirrel` through.
//
// A CdnSystem wraps one concrete system (FlowerSystem, SquirrelSystem, or
// anything an embedder registers) behind the four operations the harness
// needs: Setup, SubmitQuery, ParticipantAddresses and the stat hooks. The
// built-in adapters live in src/api/systems.h.
#ifndef FLOWERCDN_API_CDN_SYSTEM_H_
#define FLOWERCDN_API_CDN_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace flower {

class Metrics;
class Network;
class Simulator;
class Topology;
struct Deployment;
class WebsiteCatalog;
struct RunResult;
struct SimConfig;

/// Everything a system needs to build itself: the simulated world plus the
/// shared metrics collector. All pointers outlive the system.
struct SystemContext {
  const SimConfig* config = nullptr;
  Simulator* sim = nullptr;
  Network* network = nullptr;
  const Topology* topology = nullptr;
  Metrics* metrics = nullptr;
};

class CdnSystem {
 public:
  virtual ~CdnSystem() = default;

  /// Registry key this system was created under ("flower").
  virtual const char* key() const = 0;
  /// Display name for text summaries ("Flower-CDN").
  virtual const char* name() const = 0;

  /// Builds the initial deployment (origin servers, directory rings, ...).
  /// Called exactly once, before any SubmitQuery.
  virtual void Setup() = 0;

  /// Workload entry point: the peer at `node` requests `object` of the
  /// website with index `website`. Creates the client on first use.
  virtual void SubmitQuery(NodeId node, WebsiteId website,
                           ObjectId object) = 0;

  /// Addresses of all live participants — the population over which
  /// background traffic is averaged.
  virtual std::vector<PeerAddress> ParticipantAddresses() const = 0;

  /// The client population and website catalog the workload draws from.
  virtual const Deployment& deployment() const = 0;
  virtual const WebsiteCatalog& catalog() const = 0;

  /// True while `node` is offline (churn blackout); the workload driver
  /// drops queries from blacked-out originators.
  virtual bool IsBlackedOut(NodeId node) const {
    (void)node;
    return false;
  }

  /// True if this system keeps all lane-scoped state isolated per
  /// locality under a sharded run, so the parallel shard executor may
  /// run lanes on separate threads (sim/sharded_simulator.h). Systems
  /// with cross-locality shared mutable state (lazy global tables, ring
  /// mutation under churn) must return false; the sharded engine then
  /// runs the same deterministic schedule cooperatively.
  virtual bool SupportsParallelShards() const { return false; }

  /// Stat hook: adds system-specific counters (churn deaths, directory
  /// promotions, ...) to the result after the run.
  virtual void FillStats(RunResult* result) const { (void)result; }
};

using SystemFactory =
    std::function<std::unique_ptr<CdnSystem>(const SystemContext&)>;

/// Name -> factory map for runnable systems. The built-in systems
/// ("flower", "squirrel") self-register on first use;
/// embedders may Register additional systems under new keys, which then
/// work everywhere a `system=` config value is accepted.
class SystemRegistry {
 public:
  static SystemRegistry& Instance();

  /// Registers (or replaces) a factory under `key`.
  void Register(const std::string& key, SystemFactory factory);

  /// Removes a registered factory (no-op for unknown keys). The registry
  /// is process-global; embedders and tests that register temporary
  /// systems should unregister them when done.
  void Unregister(const std::string& key) { factories_.erase(key); }

  bool Contains(const std::string& key) const {
    return factories_.count(key) > 0;
  }

  /// Registered keys in sorted order (for error messages and --help).
  std::vector<std::string> Keys() const;

  /// Instantiates the system registered under `key`.
  Result<std::unique_ptr<CdnSystem>> Create(const std::string& key,
                                            const SystemContext& ctx) const;

 private:
  SystemRegistry() = default;
  std::map<std::string, SystemFactory> factories_;
};

/// Registers the built-in adapters (defined in src/api/systems.cc); called
/// by SystemRegistry::Instance, idempotent.
void RegisterBuiltinSystems(SystemRegistry* registry);

}  // namespace flower

#endif  // FLOWERCDN_API_CDN_SYSTEM_H_
