// Ablation: bounded directory index (src/cache/directory_store.h). The
// paper's directory peers index every content peer of their (website,
// locality); the scale-up story (Sec 5.3) needs small directory nodes
// whose peer -> content index is itself capacity-bounded. This sweep
// bounds every directory's index under LRU across overlay sizes,
// producing a hit-ratio-vs-capacity curve per S_co next to an unbounded
// reference.
//
// Expected: hit ratio grows monotonically with index capacity and
// converges to the unbounded (paper) reference once the budget covers
// the overlay's footprint; below that, dir_index_evictions rise and
// queries that the evicted entries would have answered fall to the
// origin server. Larger overlays (S_co) need proportionally more index
// bytes to reach the same hit ratio.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cache/directory_store.h"

int main(int argc, char** argv) {
  using namespace flower;
  bench::Driver driver("ablation_dirindex", argc, argv);
  driver.PrintHeader("Ablation: directory index capacity under LRU x S_co");
  const SimConfig& base = driver.config();

  // Capacities in entries' worth of footprint: an entry claiming ~32
  // objects costs kEntryBaseBytes + 32 * kBytesPerObjectId bytes.
  const uint64_t entry_bytes =
      DirectoryStore::FootprintBytes(32);
  const std::vector<uint64_t> capacities = {
      4 * entry_bytes, 16 * entry_bytes, 64 * entry_bytes};
  const std::vector<int> overlay_sizes = {base.max_content_overlay_size / 2,
                                          base.max_content_overlay_size};

  // Queue the whole (S_co x capacity) grid plus per-S_co unbounded
  // references, then run once — parallel under jobs=N, results and sink
  // output in submission order.
  for (int s_co : overlay_sizes) {
    SimConfig ref = base;
    ref.max_content_overlay_size = s_co;
    ref.directory_index_capacity_bytes = 0;
    driver.Enqueue(ref, "flower",
                   "S_co=" + std::to_string(s_co) + "/unbounded");
    for (uint64_t capacity : capacities) {
      SimConfig c = base;
      c.max_content_overlay_size = s_co;
      c.directory_index_capacity_bytes = capacity;
      driver.Enqueue(c, "flower",
                     "S_co=" + std::to_string(s_co) + "/lru/" +
                         std::to_string(capacity));
    }
  }
  std::vector<RunResult> runs = driver.RunQueued();
  size_t next = 0;

  std::printf("  %-6s %-10s %-14s %-10s %-10s %-14s %-12s\n", "S_co",
              "policy", "capacity", "hit_ratio", "hit_cum", "dir_evictions",
              "server_hits");

  bool monotone = true;
  double reference_cum = 0;
  for (int s_co : overlay_sizes) {
    // Unbounded reference: the paper's complete index at this scale.
    const RunResult& reference = runs[next++];
    reference_cum = reference.cumulative_hit_ratio;
    std::printf("  %-6d %-10s %-14s %-10s %-10s %-14llu %-12llu\n", s_co,
                "unbounded", "inf",
                bench::Fmt(reference.final_hit_ratio).c_str(),
                bench::Fmt(reference.cumulative_hit_ratio).c_str(),
                static_cast<unsigned long long>(reference.dir_index_evictions),
                static_cast<unsigned long long>(reference.server_hits));

    double prev = -1.0;
    for (uint64_t capacity : capacities) {
      const RunResult& r = runs[next++];
      std::printf("  %-6d %-10s %-14llu %-10s %-10s %-14llu %-12llu\n",
                  s_co, "lru", static_cast<unsigned long long>(capacity),
                  bench::Fmt(r.final_hit_ratio).c_str(),
                  bench::Fmt(r.cumulative_hit_ratio).c_str(),
                  static_cast<unsigned long long>(r.dir_index_evictions),
                  static_cast<unsigned long long>(r.server_hits));
      if (r.cumulative_hit_ratio + 1e-9 < prev) monotone = false;
      prev = r.cumulative_hit_ratio;
    }
    std::printf("\n");
  }

  bench::PrintComparison("hit ratio vs index capacity (LRU)",
                         "monotone increasing",
                         monotone ? "monotone" : "NOT monotone");
  bench::PrintComparison(
      "largest capacity vs unbounded", "approaches paper behavior",
      bench::Fmt(reference_cum) + " reference");
  return 0;
}
