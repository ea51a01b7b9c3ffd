// Cache pressure: run the same small Flower-CDN scenario with unbounded
// peer storage (the paper's Sec 4 assumption) and with a bounded LRU
// cache, and show what storage pressure does to the hit ratio and to
// summary staleness (evictions -> stale redirects -> counted fallbacks).
// Any config knob can be overridden as key=value, e.g. a tighter LRU
// budget:
//   ./cache_pressure cache_capacity_bytes=65536
#include <cstdio>

#include "api/experiment.h"

int main(int argc, char** argv) {
  flower::SimConfig config;
  // Same small default scenario as the quickstart.
  config.num_topology_nodes = 1200;
  config.num_websites = 20;
  config.num_active_websites = 4;
  config.max_content_overlay_size = 40;
  config.duration = 6 * flower::kHour;
  config.queries_per_second = 3.0;
  // Default pressure point: room for ~10 of the 10 KB objects per peer.
  config.cache_policy = "lru";
  config.cache_capacity_bytes = 100 * 1024;

  flower::Status status = config.ApplyArgs(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "bad arguments: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("Flower-CDN under cache pressure\n  config: %s\n\n",
              config.ToString().c_str());

  flower::SimConfig unbounded = config;
  unbounded.cache_policy = "unbounded";
  unbounded.cache_capacity_bytes = 0;
  flower::RunResult baseline = flower::Experiment(unbounded)
                                   .WithSystem("flower")
                                   .WithLabel("unbounded")
                                   .Run();
  std::printf("  unbounded : %s\n", flower::FormatRunSummary(baseline).c_str());

  flower::RunResult bounded = flower::Experiment(config)
                                  .WithSystem("flower")
                                  .WithLabel(config.cache_policy)
                                  .Run();
  std::printf("  %-9s : %s\n", config.cache_policy.c_str(),
              flower::FormatRunSummary(bounded).c_str());

  std::printf(
      "\n  storage pressure cost: hit ratio %.3f -> %.3f, "
      "%llu evictions, %llu stale redirects (all fell back, none lost)\n",
      baseline.final_hit_ratio, bounded.final_hit_ratio,
      static_cast<unsigned long long>(bounded.cache_evictions),
      static_cast<unsigned long long>(bounded.stale_redirects));
  return 0;
}
