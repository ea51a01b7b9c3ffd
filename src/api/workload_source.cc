#include "api/workload_source.h"

#include "common/hash.h"

namespace flower {

SyntheticSource::SyntheticSource(const WorkloadEnv& env)
    // The 0x5EED tweak matches the v1 runner's generator seed, keeping
    // synthetic runs bit-identical across the API migration.
    : generator_(*env.config, *env.deployment, *env.catalog,
                 Mix64(env.config->seed ^ 0x5EED)) {}

WorkloadFactory SyntheticWorkload() {
  return [](const WorkloadEnv& env)
             -> Result<std::unique_ptr<WorkloadSource>> {
    return std::unique_ptr<WorkloadSource>(new SyntheticSource(env));
  };
}

}  // namespace flower
