// Ablation: bounded peer storage (src/cache/). The paper's content peers
// keep every object they retrieve (Sec 4); real CDN edges run under
// storage pressure. This sweep bounds every peer's cache under LRU and
// produces a hit-ratio-vs-capacity curve next to the unbounded reference.
//
// Expected: hit ratio grows monotonically with capacity and converges to
// the unbounded (paper) behavior once the budget covers a peer's working
// set; evictions and the stale redirects they induce shrink accordingly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flower;
  bench::Driver driver("ablation_cache", argc, argv);
  driver.PrintHeader("Ablation: cache capacity under LRU");
  const SimConfig& base = driver.config();

  const uint64_t object_bytes = base.object_size_bits / 8;
  // Capacities in objects' worth of bytes: severe pressure -> roomy.
  const std::vector<uint64_t> capacities = {
      4 * object_bytes, 16 * object_bytes, 64 * object_bytes,
      256 * object_bytes};

  // Queue every sweep point up front (the unbounded reference, then LRU
  // at each capacity), then run them all at once — in parallel under
  // jobs=N, with results back in this order.
  SimConfig unbounded = base;
  unbounded.cache_policy = "unbounded";
  unbounded.cache_capacity_bytes = 0;
  driver.Enqueue(unbounded, "flower", "unbounded");
  for (uint64_t capacity : capacities) {
    SimConfig c = base;
    c.cache_policy = "lru";
    c.cache_capacity_bytes = capacity;
    driver.Enqueue(c, "flower", "lru/" + std::to_string(capacity));
  }
  std::vector<RunResult> runs = driver.RunQueued();
  size_t next = 0;

  std::printf("  %-10s %-14s %-10s %-10s %-12s %-14s\n", "policy",
              "capacity", "hit_ratio", "hit_cum", "evictions",
              "stale_redirects");

  // Unbounded reference: the paper's keep-everything peers.
  const RunResult reference = runs[next++];
  std::printf("  %-10s %-14s %-10s %-10s %-12llu %-14llu\n", "unbounded",
              "inf", bench::Fmt(reference.final_hit_ratio).c_str(),
              bench::Fmt(reference.cumulative_hit_ratio).c_str(),
              static_cast<unsigned long long>(reference.cache_evictions),
              static_cast<unsigned long long>(reference.stale_redirects));

  bool monotone = true;
  double prev = -1.0;
  for (uint64_t capacity : capacities) {
    const RunResult& r = runs[next++];
    std::printf("  %-10s %-14llu %-10s %-10s %-12llu %-14llu\n", "lru",
                static_cast<unsigned long long>(capacity),
                bench::Fmt(r.final_hit_ratio).c_str(),
                bench::Fmt(r.cumulative_hit_ratio).c_str(),
                static_cast<unsigned long long>(r.cache_evictions),
                static_cast<unsigned long long>(r.stale_redirects));
    if (r.cumulative_hit_ratio + 1e-9 < prev) monotone = false;
    prev = r.cumulative_hit_ratio;
  }
  std::printf("\n");

  bench::PrintComparison("hit ratio vs capacity (LRU)", "monotone increasing",
                         monotone ? "monotone" : "NOT monotone");
  bench::PrintComparison(
      "largest capacity vs unbounded", "approaches paper behavior",
      bench::Fmt(reference.cumulative_hit_ratio) + " reference");
  return 0;
}
