// Cache pressure: run the same small Flower-CDN scenario with unbounded
// peer storage (the paper's Sec 4 assumption) and with a bounded LRU
// cache, and show what storage pressure does to the hit ratio and to
// summary staleness (evictions -> stale redirects -> counted fallbacks).
// Any config knob can be overridden as key=value, e.g. a tighter LRU
// budget:
//   ./cache_pressure cache_capacity_bytes=65536
#include <algorithm>
#include <cstdio>
#include <string>

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

  // The bounded run is named as on the config line (policy/budget), so
  // its row stays apart from the baseline's even when the policy is
  // `unbounded`.
  const std::string baseline_label = "unbounded";
  std::string label = config.cache_policy;
  if (config.cache_capacity_bytes > 0) {
    label += "/" + std::to_string(config.cache_capacity_bytes) + "B";
  }
  const int width = static_cast<int>(std::max(baseline_label.size(),
                                              label.size()));

  flower::SimConfig unbounded = config;
  unbounded.cache_policy = "unbounded";
  unbounded.cache_capacity_bytes = 0;
  flower::RunResult baseline = flower::Experiment(unbounded)
                                   .WithSystem("flower")
                                   .WithLabel(baseline_label)
                                   .Run();
  std::printf("  %-*s : %s\n", width, baseline_label.c_str(),
              flower::FormatRunSummary(baseline).c_str());

  flower::RunResult bounded = flower::Experiment(config)
                                  .WithSystem("flower")
                                  .WithLabel(label)
                                  .Run();
  std::printf("  %-*s : %s\n", width, label.c_str(),
              flower::FormatRunSummary(bounded).c_str());

  std::printf(
      "\n  storage pressure cost: hit ratio %.3f -> %.3f, "
      "%llu evictions, %llu stale redirects (all fell back, none lost)\n",
      baseline.final_hit_ratio, bounded.final_hit_ratio,
      static_cast<unsigned long long>(bounded.cache_evictions),
      static_cast<unsigned long long>(bounded.stale_redirects));
  return 0;
}
