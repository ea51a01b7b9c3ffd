// Ablation: robustness under injected faults. Sweeps message loss x
// churn with the hardened client pipeline on (query timeouts,
// exponential-backoff retries, origin-server fallback, keepalive-ack
// suspicion), plus a partition-heal scenario and a no-hardening contrast
// arm.
//
// Shape to demonstrate: with retries the query success rate stays 1.0
// at >= 5% loss while lookup latency degrades smoothly; without the
// hardening the same loss silently loses queries. A scheduled partition
// drops real traffic yet heals without losing availability.
//
//   ./bench_ablation_faults quick json   -> BENCH_faults.json
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

struct Arm {
  std::string label;
  double loss = 0;
  bool churn = false;
  bool partition = false;
  bool hardened = true;
  flower::RunResult result;
};

void WriteJson(const std::string& path, const std::vector<Arm>& arms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < arms.size(); ++i) {
    const Arm& a = arms[i];
    const flower::RunResult& r = a.result;
    std::fprintf(
        f,
        "  {\"label\":\"%s\",\"loss\":%.2f,"
        "\"churn\":%s,\"partition\":%s,\"hardened\":%s,"
        "\"success_rate\":%.6f,\"hit_ratio\":%.6f,\"mean_lookup_ms\":%.3f,"
        "\"server_hits\":%llu,\"injected_drops\":%llu,"
        "\"partition_drops\":%llu,\"queries_timed_out\":%llu,"
        "\"query_retries\":%llu,\"silent_crashes\":%llu,"
        "\"suspicions_confirmed\":%llu}%s\n",
        a.label.c_str(), a.loss,
        a.churn ? "true" : "false", a.partition ? "true" : "false",
        a.hardened ? "true" : "false", r.QuerySuccessRate(),
        r.final_hit_ratio, r.mean_lookup_ms,
        static_cast<unsigned long long>(r.server_hits),
        static_cast<unsigned long long>(r.injected_drops),
        static_cast<unsigned long long>(r.partition_drops),
        static_cast<unsigned long long>(r.queries_timed_out),
        static_cast<unsigned long long>(r.query_retries),
        static_cast<unsigned long long>(r.silent_crashes),
        static_cast<unsigned long long>(r.suspicions_confirmed),
        i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flower;

  // This bench writes its own JSON schema (per-arm fault counters), so
  // the json token is handled here, not by Driver.
  std::string json_path;
  std::vector<char*> fwd;
  for (int a = 0; a < argc; ++a) {
    if (a > 0 && std::strncmp(argv[a], "json", 4) == 0) {
      const char* eq = std::strchr(argv[a], '=');
      json_path = eq != nullptr ? eq + 1 : "BENCH_faults.json";
      continue;
    }
    fwd.push_back(argv[a]);
  }
  bench::Driver driver("faults", static_cast<int>(fwd.size()), fwd.data());
  driver.PrintHeader("Ablation: loss x churn (+ partitions)");
  SimConfig base = driver.config();

  // The hardened client pipeline, shared by every arm except the
  // explicit no-hardening contrast.
  auto harden = [](SimConfig* c) {
    c->query_timeout = 5 * kSecond;
    c->query_max_retries = 4;
    c->suspicion_keepalive_misses = 2;
  };
  auto add_churn = [](SimConfig* c) {
    c->churn_enabled = true;
    c->churn_mean_session = 1 * kHour;
    c->churn_mean_downtime = 10 * kMinute;
    c->fault_silent_crash_probability = 0.5;  // half the crashes go dark
  };

  const double losses[] = {0.0, 0.01, 0.05, 0.10};

  std::vector<Arm> arms;
  auto enqueue = [&driver, &arms](const SimConfig& c, Arm arm) {
    driver.Enqueue(c, "flower", arm.label);
    arms.push_back(std::move(arm));
  };

  for (bool churn : {false, true}) {
    for (double loss : losses) {
      SimConfig c = base;
      harden(&c);
      if (loss > 0) c.fault_loss = bench::Fmt(loss, 2);
      if (churn) add_churn(&c);
      Arm arm;
      arm.loss = loss;
      arm.churn = churn;
      arm.label = "flower/loss=" + bench::Fmt(loss, 2) +
                  (churn ? "/churn" : "");
      enqueue(c, std::move(arm));
    }
  }
  // Contrast arm: the same 5% loss with the hardening off — shows what
  // the timeouts/retries actually buy.
  {
    SimConfig c = base;
    c.fault_loss = "0.05";
    Arm arm;
    arm.loss = 0.05;
    arm.hardened = false;
    arm.label = "flower/loss=0.05/no-hardening";
    enqueue(c, std::move(arm));
  }
  // Partition-heal scenario: locality 0 is cut off from everyone for the
  // middle sixth of the run, then the window closes and the link heals.
  {
    SimConfig c = base;
    harden(&c);
    const SimTime start = c.duration / 3;
    const SimTime end = c.duration / 2;
    c.fault_partitions = "0|*@" + std::to_string(start) + "ms-" +
                         std::to_string(end) + "ms";
    Arm arm;
    arm.partition = true;
    arm.label = "flower/partition-heal";
    enqueue(c, std::move(arm));
  }

  std::vector<RunResult> runs = driver.RunQueued();
  for (size_t i = 0; i < runs.size(); ++i) arms[i].result = runs[i];

  std::printf("  %-30s %-9s %-10s %-11s %-9s %-9s\n", "arm", "success",
              "hit_ratio", "lookup_ms", "drops", "retries");
  for (const Arm& a : arms) {
    const RunResult& r = a.result;
    std::printf("  %-30s %-9s %-10s %-11s %-9llu %-9llu\n", a.label.c_str(),
                bench::Fmt(r.QuerySuccessRate(), 4).c_str(),
                bench::Fmt(r.final_hit_ratio).c_str(),
                bench::Fmt(r.mean_lookup_ms, 1).c_str(),
                static_cast<unsigned long long>(r.injected_drops +
                                                r.partition_drops),
                static_cast<unsigned long long>(r.query_retries));
  }

  // Headline numbers.
  auto find_arm = [&arms](const std::string& label) -> const Arm* {
    for (const Arm& a : arms) {
      if (a.label == label) return &a;
    }
    return nullptr;
  };
  const Arm* clean = find_arm("flower/loss=0.00");
  const Arm* lossy = find_arm("flower/loss=0.05");
  const Arm* worst = find_arm("flower/loss=0.10");
  const Arm* soft = find_arm("flower/loss=0.05/no-hardening");
  const Arm* part = find_arm("flower/partition-heal");
  // Hard-cutoff caveat: the run stops dead at `duration`, so at extreme
  // loss a handful of queries are still mid-retry at the horizon. The
  // availability claim is therefore scoped to the <= 5% band; the 10%
  // arm stays in the table as the stress point.
  double min_success = 1.0;
  for (const Arm& a : arms) {
    if (a.hardened && !a.churn && a.loss <= 0.05) {
      min_success = std::min(min_success, a.result.QuerySuccessRate());
    }
  }
  bench::PrintComparison(
      "success at 5% loss (hardened vs not)", "1.0 vs < 1.0",
      bench::Fmt(lossy->result.QuerySuccessRate(), 4) + " vs " +
          bench::Fmt(soft->result.QuerySuccessRate(), 4));
  bench::PrintComparison("min success, hardened <= 5% loss (no churn)",
                         "1.0", bench::Fmt(min_success, 4));
  bench::PrintComparison(
      "lookup degradation 0% -> 10% loss", "smooth (latency, not loss)",
      bench::Fmt(clean->result.mean_lookup_ms, 1) + " -> " +
          bench::Fmt(worst->result.mean_lookup_ms, 1) + " ms");
  bench::PrintComparison(
      "partition heal", "availability held",
      bench::Fmt(part->result.QuerySuccessRate(), 4) + " success, " +
          std::to_string(part->result.partition_drops) + " msgs cut");

  if (!json_path.empty()) {
    WriteJson(json_path, arms);
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}
