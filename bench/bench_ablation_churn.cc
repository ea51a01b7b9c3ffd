// Ablation: churn (paper Sec 8 — "we are empirically analysing the
// behavior of Flower-CDN in presence of churn").
//
// Part 1 sweeps the mean session length; reports hit ratio, unresolved
// queries, directory replacements. The claim to support: gossip +
// keepalive + the replacement protocol keep the system serving under
// churn, with graceful hit-ratio degradation.
//
// Part 2 crosses churn with the bounded directory index
// (`directory_index_capacity`, src/cache/): when a directory dies and its
// heir's index budget is smaller than the donor's state, the handoff
// truncates honestly — the overlay then has to rediscover the dropped
// holders. The sweep measures how long the hit ratio takes to recover
// after the post-promotion dip, per index capacity, and emits the full
// trajectories to BENCH_ablation_churn.json (json CLI token; run in CI).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using flower::RunResult;

/// Windows from the deepest post-warmup dip of the hit-ratio trajectory
/// until it first climbs back to >= 95% of the run's final ratio (the
/// run length if it never does). With churn promotions truncating
/// bounded heirs, smaller budgets dip deeper and recover slower.
size_t RecoveryWindows(const RunResult& r) {
  const std::vector<double>& hits = r.hit_ratio_by_window;
  if (hits.size() < 4 || r.final_hit_ratio <= 0) return 0;
  const size_t start = hits.size() / 4;  // skip the cold-start ramp
  size_t dip = start;
  for (size_t i = start; i < hits.size(); ++i) {
    if (hits[i] < hits[dip]) dip = i;
  }
  const double target = 0.95 * r.final_hit_ratio;
  for (size_t i = dip; i < hits.size(); ++i) {
    if (hits[i] >= target) return i - dip;
  }
  return hits.size() - dip;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flower;
  bench::Driver driver("ablation_churn", argc, argv);
  driver.config().churn_enabled = true;
  driver.config().churn_mean_downtime = 30 * kMinute;
  driver.PrintHeader("Ablation: churn (mean session length sweep)");
  const SimConfig& base = driver.config();

  std::printf("  %-14s %-12s %-12s %-12s %-12s\n", "mean_session",
              "hit_ratio", "served/sub", "dir_deaths", "promotions");

  struct Row {
    SimTime session;
    const char* label;
  };
  const Row rows[] = {{0, "no churn"},
                      {4 * kHour, "4 h"},
                      {1 * kHour, "1 h"},
                      {20 * kMinute, "20 min"}};
  for (const Row& row : rows) {
    SimConfig c = base;
    if (row.session == 0) {
      c.churn_enabled = false;
    } else {
      c.churn_mean_session = row.session;
    }
    driver.Enqueue(c, "flower", row.label);
  }
  std::vector<RunResult> runs = driver.RunQueued();
  for (size_t i = 0; i < runs.size(); ++i) {
    const Row& row = rows[i];
    const RunResult& r = runs[i];
    double served_frac =
        r.queries_submitted == 0
            ? 0
            : static_cast<double>(r.queries_served) /
                  static_cast<double>(r.queries_submitted);
    std::printf("  %-14s %-12s %-12s %-12llu %-12llu\n", row.label,
                bench::Fmt(r.final_hit_ratio).c_str(),
                bench::Fmt(served_frac).c_str(),
                static_cast<unsigned long long>(r.churn_failures +
                                                r.churn_leaves),
                static_cast<unsigned long long>(r.directory_promotions));
  }
  bench::PrintComparison("degradation under churn", "graceful (Sec 8 goal)",
                         "see hit_ratio column above");

  // --- Part 2: churn x bounded directory index --------------------------------
  // Fixed 1 h sessions; sweep the heir's index budget. Recovery time is
  // the post-dip climb of the hit-ratio trajectory (RecoveryWindows).
  std::printf("\nChurn x directory_index_capacity "
              "(1 h sessions; recovery after handoff truncation)\n");
  std::printf("  %-14s %-12s %-14s %-12s %-16s\n", "capacity",
              "hit_ratio", "dir_evictions", "promotions",
              "recovery_windows");

  struct CapRow {
    uint64_t capacity_bytes;
    const char* label;
  };
  const CapRow caps[] = {{0, "unbounded"},
                         {65536, "64KB"},
                         {16384, "16KB"},
                         {4096, "4KB"}};
  for (const CapRow& cap : caps) {
    SimConfig c = base;
    c.churn_enabled = true;
    c.churn_mean_session = 1 * kHour;
    // Finer windows than the default 30 min so the dip/recovery shape is
    // resolvable even on short (quick/CI) runs.
    c.metrics_window = std::min<SimTime>(c.metrics_window, 10 * kMinute);
    c.directory_index_capacity_bytes = cap.capacity_bytes;
    driver.Enqueue(c, "flower", std::string("dir_index=") + cap.label);
  }
  std::vector<RunResult> cap_runs = driver.RunQueued();
  for (size_t i = 0; i < cap_runs.size(); ++i) {
    const RunResult& r = cap_runs[i];
    std::printf("  %-14s %-12s %-14llu %-12llu %-16zu\n", caps[i].label,
                bench::Fmt(r.final_hit_ratio).c_str(),
                static_cast<unsigned long long>(r.dir_index_evictions),
                static_cast<unsigned long long>(r.directory_promotions),
                RecoveryWindows(r));
  }
  bench::PrintComparison(
      "recovery vs index budget",
      "smaller heirs recover slower (truncated handoffs)",
      "see recovery_windows column above");
  return 0;
}
