// Ablation: bounded peer storage (src/cache/). The paper's content peers
// keep every object they retrieve (Sec 4); real CDN edges run under
// storage pressure. This sweep bounds every peer's cache and compares
// replacement policies, producing hit-ratio-vs-capacity curves.
//
// Expected: hit ratio grows monotonically with capacity for every policy
// and converges to the unbounded (paper) behavior once the budget covers
// a peer's working set; evictions and the stale redirects they induce
// shrink accordingly. Every object has the same size (paper Table 1), so
// GDSF's size term is a constant: it ranks by frequency and aging, and
// under cache_cost=distance by refetch distance too.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace flower;
  bench::Driver driver("ablation_cache", argc, argv);
  driver.PrintHeader("Ablation: cache capacity x replacement policy");
  const SimConfig& base = driver.config();

  const uint64_t object_bytes = base.object_size_bits / 8;
  // Capacities in objects' worth of bytes: severe pressure -> roomy.
  const std::vector<uint64_t> capacities = {
      4 * object_bytes, 16 * object_bytes, 64 * object_bytes,
      256 * object_bytes};
  const std::vector<std::string> policies = {"lru", "lfu", "gdsf"};

  // Queue every sweep point up front (the unbounded reference, the
  // policy x capacity grid, the GDSF cost-model pair), then run them all
  // at once — in parallel under jobs=N, with results back in this order.
  SimConfig unbounded = base;
  unbounded.cache_policy = "unbounded";
  unbounded.cache_capacity_bytes = 0;
  driver.Enqueue(unbounded, "flower", "unbounded");
  for (const std::string& policy : policies) {
    for (uint64_t capacity : capacities) {
      SimConfig c = base;
      c.cache_policy = policy;
      c.cache_capacity_bytes = capacity;
      driver.Enqueue(c, "flower", policy + "/" + std::to_string(capacity));
    }
  }
  for (const std::string& cost : {std::string("uniform"),
                                  std::string("distance")}) {
    SimConfig c = base;
    c.cache_policy = "gdsf";
    c.cache_capacity_bytes = 4 * object_bytes;
    c.cache_cost = cost;
    driver.Enqueue(c, "flower", "gdsf/" + cost);
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
  for (const std::string& policy : policies) {
    double prev = -1.0;
    for (uint64_t capacity : capacities) {
      const RunResult& r = runs[next++];
      std::printf("  %-10s %-14llu %-10s %-10s %-12llu %-14llu\n",
                  policy.c_str(), static_cast<unsigned long long>(capacity),
                  bench::Fmt(r.final_hit_ratio).c_str(),
                  bench::Fmt(r.cumulative_hit_ratio).c_str(),
                  static_cast<unsigned long long>(r.cache_evictions),
                  static_cast<unsigned long long>(r.stale_redirects));
      if (r.cumulative_hit_ratio + 1e-9 < prev) monotone = false;
      prev = r.cumulative_hit_ratio;
    }
    std::printf("\n");
  }

  bench::PrintComparison("hit ratio vs capacity (per policy)",
                         "monotone increasing",
                         monotone ? "monotone" : "NOT monotone");
  bench::PrintComparison(
      "largest capacity vs unbounded", "approaches paper behavior",
      bench::Fmt(reference.cumulative_hit_ratio) + " reference");

  // GDSF cost term: plain (cost 1) vs latency-aware (cost = measured
  // provider->client transfer distance). Distance-aware GDSF protects
  // far-fetched objects, so re-fetch traffic shifts towards nearby
  // providers and the mean transfer distance should not rise. Run under
  // severe pressure — with a roomy cache both models evict too rarely
  // to diverge.
  std::printf("\n  GDSF cost model (cache_cost), capacity %llu B\n",
              static_cast<unsigned long long>(4 * object_bytes));
  std::printf("  %-10s %-10s %-10s %-14s %-12s\n", "cost", "hit_ratio",
              "hit_cum", "transfer_ms", "evictions");
  RunResult uniform;
  RunResult distance;
  for (const std::string& cost : {std::string("uniform"),
                                  std::string("distance")}) {
    const RunResult& r = runs[next++];
    (cost == "uniform" ? uniform : distance) = r;
    std::printf("  %-10s %-10s %-10s %-14s %-12llu\n", cost.c_str(),
                bench::Fmt(r.final_hit_ratio).c_str(),
                bench::Fmt(r.cumulative_hit_ratio).c_str(),
                bench::Fmt(r.mean_transfer_ms, 1).c_str(),
                static_cast<unsigned long long>(r.cache_evictions));
  }
  bench::PrintComparison(
      "transfer distance, distance-aware vs plain GDSF", "lower or equal",
      bench::Fmt(distance.mean_transfer_ms, 1) + " vs " +
          bench::Fmt(uniform.mean_transfer_ms, 1) + " ms");
  return 0;
}
