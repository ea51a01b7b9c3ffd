// Memory-scaled runs: peers-vs-RSS and peers-vs-events/sec curves for
// the flyweight peer-state layer (interned object ids, SoA peer tables,
// streamed metrics).
//
//   ./bench_scale [quick] [json[=PATH]]   # sweep -> BENCH_scale.json
//   ./bench_scale point key=value...      # one point (internal)
//
// The sweep crosses peers in {1k, 4k, 16k, 64k, 100k} (quick stops at
// 16k — the CI smoke) with directory_index_capacity in {unbounded, 64KB}
// and scaleup_extra_bits in {0, 1}; the bounded 64KB index evicts its
// least recently contacted entries (LRU). Every point runs in a child
// process (the driver re-execs itself with `point ...`):
// MemStats::PeakRssBytes reads VmHWM, which is process-lifetime-monotonic,
// so points sharing a process would inherit each other's peaks.
//
// Unlike the figure/table drivers, RSS and events/sec are host
// measurements, so BENCH_scale.json is a machine profile, not a
// deterministic trajectory.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "common/config.h"
#include "common/mem_stats.h"

namespace {

using namespace flower;

// The workload behind every point: a cache-rich universe, query rate
// scaled with the population so larger runs actually populate their
// peer tables, metrics streamed through a bounded ring (layer 4)
// instead of growing with the run.
//
// Memory-representative choices, deliberately heavier than the
// protocol-behavior suites:
//  - 2000 objects/site at 2 summary bits/object: the same filter bytes
//    as the paper-default 500 x 8 (m = 4000 bits either way), but a
//    catalog large enough that steady-state caches hold hundreds of
//    objects. Queries are the only mechanism that fills content caches
//    and directory claims; a near-empty cache would measure fixed
//    protocol state (Bloom snapshots, gossip views), not peer state.
//  - 15% of peers query per second over 6 simulated hours: the
//    workload driver is closed-loop (a busy client skips its turn), so
//    the effective rate saturates and the cache occupancy is set by
//    the duration. This compresses a multi-day trace into one run.
SimConfig ScaleConfig(int peers) {
  SimConfig c;
  c.num_topology_nodes = peers;
  c.num_localities = 6;
  c.num_websites = 30;
  c.num_active_websites = 4;
  c.num_objects_per_website = 2000;
  c.summary_bits_per_object = 2;
  // Overlay capacity scales with the population: with the paper's fixed
  // S_co the joined population saturates at active*localities*S_co and
  // the peer tables would never see the configured scale.
  c.max_content_overlay_size = peers / 20 > 40 ? peers / 20 : 40;
  c.duration = 6 * kHour;
  c.queries_per_second = peers > 300 ? peers * 0.15 : 45.0;
  c.metrics_max_points = 256;
  return c;
}

int RunPoint(int argc, char** argv) {
  int peers = 1000;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int a = 2; a < argc; ++a) {
    if (std::strncmp(argv[a], "peers=", 6) == 0) {
      peers = std::atoi(argv[a] + 6);
    } else {
      rest.push_back(argv[a]);
    }
  }
  SimConfig config = ScaleConfig(peers);
  Status status = config.ApplyArgs(static_cast<int>(rest.size()), rest.data());
  if (!status.ok()) {
    std::fprintf(stderr, "bench_scale point: %s\n", status.message().c_str());
    return 1;
  }
  Result<RunResult> run = Experiment(config).WithSystem("flower").TryRun();
  if (!run.ok()) {
    std::fprintf(stderr, "bench_scale point: %s\n",
                 run.status().message().c_str());
    return 1;
  }
  const RunResult& r = run.value();
  // One machine-readable line for the parent sweep.
  std::printf("SCALEPOINT peers=%d rss=%" PRIu64 " events=%" PRIu64
              " wall_ms=%.0f participants=%zu served=%" PRIu64
              " queries=%" PRIu64 " hit=%.6f\n",
              peers, MemStats::PeakRssBytes(), r.events_processed, r.wall_ms,
              r.participants, r.queries_served, r.queries_submitted,
              r.final_hit_ratio);
  return 0;
}

struct Point {
  int peers = 0;
  std::string capacity;  // "unbounded" or bytes
  int extra_bits = 0;
  uint64_t rss = 0;
  uint64_t events = 0;
  double wall_ms = 0;
  size_t participants = 0;
  uint64_t served = 0;
  uint64_t queries = 0;
  double hit = 0;
};

bool SpawnPoint(const char* self, Point* p) {
  std::string cmd = std::string(self) + " point peers=" +
                    std::to_string(p->peers) +
                    " directory_index_capacity=" + p->capacity +
                    " scaleup_extra_bits=" + std::to_string(p->extra_bits);
  if (p->extra_bits > 0) cmd += " scaleup_instances=2";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  char line[512];
  bool got = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    uint64_t rss, events, served, queries;
    double wall_ms, hit;
    int peers;
    size_t participants;
    if (std::sscanf(line,
                    "SCALEPOINT peers=%d rss=%" SCNu64 " events=%" SCNu64
                    " wall_ms=%lf participants=%zu served=%" SCNu64
                    " queries=%" SCNu64 " hit=%lf",
                    &peers, &rss, &events, &wall_ms, &participants, &served,
                    &queries, &hit) == 8) {
      p->rss = rss;
      p->events = events;
      p->wall_ms = wall_ms;
      p->participants = participants;
      p->served = served;
      p->queries = queries;
      p->hit = hit;
      got = true;
    }
  }
  return pclose(pipe) == 0 && got;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "point") == 0) {
    return RunPoint(argc, argv);
  }

  bool quick = false;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "quick") {
      quick = true;
    } else if (arg == "json") {
      json_path = "BENCH_scale.json";
    } else if (arg.rfind("json=", 0) == 0) {
      json_path = arg.substr(5);
    } else {
      std::fprintf(stderr,
                   "usage: %s [quick] [json[=PATH]] | %s point key=value...\n",
                   argv[0], argv[0]);
      return 1;
    }
  }

  std::vector<int> peer_counts = {1000, 4000, 16000};
  if (!quick) {
    peer_counts.push_back(64000);
    peer_counts.push_back(100000);
  }
  struct Arm {
    const char* capacity;
    int extra_bits;
  };
  const Arm arms[] = {
      {"unbounded", 0}, {"65536", 0}, {"unbounded", 1}, {"65536", 1}};

  std::printf("bench_scale: flyweight peer state, %s sweep\n",
              quick ? "quick" : "full");
  std::printf("  %-8s %-11s %-5s %-10s %-9s %-10s %-9s %-8s\n", "peers",
              "capacity", "bits", "rss_mb", "b/peer", "events", "ev/s", "hit");

  std::vector<Point> points;
  for (int peers : peer_counts) {
    for (const Arm& arm : arms) {
      // Above 16k the full cross costs hours of wall clock; the curve
      // keeps the two ends of the spectrum (unbounded baseline and
      // bounded index + extra instances).
      if (peers > 16000 && arm.extra_bits == 0 &&
          std::strcmp(arm.capacity, "unbounded") != 0) {
        continue;
      }
      if (peers > 16000 && arm.extra_bits == 1 &&
          std::strcmp(arm.capacity, "unbounded") == 0) {
        continue;
      }
      Point p;
      p.peers = peers;
      p.capacity = arm.capacity;
      p.extra_bits = arm.extra_bits;
      if (!SpawnPoint(argv[0], &p)) {
        std::fprintf(stderr, "bench_scale: point peers=%d capacity=%s b=%d "
                             "failed\n",
                     peers, arm.capacity, arm.extra_bits);
        return 1;
      }
      const double evps = p.wall_ms > 0
                              ? static_cast<double>(p.events) /
                                    (p.wall_ms / 1000.0)
                              : 0;
      std::printf("  %-8d %-11s %-5d %-10.1f %-9.0f %-10" PRIu64
                  " %-9.0f %-8.4f\n",
                  p.peers, p.capacity.c_str(), p.extra_bits,
                  p.rss / (1024.0 * 1024.0),
                  static_cast<double>(p.rss) / p.peers, p.events, evps, p.hit);
      std::fflush(stdout);
      points.push_back(p);
    }
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_scale: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"scale\",\n  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      const double evps = p.wall_ms > 0
                              ? static_cast<double>(p.events) /
                                    (p.wall_ms / 1000.0)
                              : 0;
      std::fprintf(
          f,
          "    {\"peers\": %d, \"directory_index_capacity\": \"%s\", "
          "\"scaleup_extra_bits\": %d, \"peak_rss_bytes\": %" PRIu64 ", "
          "\"bytes_per_peer\": %.1f, \"events\": %" PRIu64 ", "
          "\"events_per_sec\": %.0f, \"participants\": %zu, "
          "\"served\": %" PRIu64 ", \"queries\": %" PRIu64 ", "
          "\"hit_ratio\": %.6f}%s\n",
          p.peers, p.capacity.c_str(), p.extra_bits, p.rss,
          static_cast<double>(p.rss) / p.peers, p.events, evps,
          p.participants, p.served, p.queries, p.hit,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("  wrote %s (%zu points)\n", json_path.c_str(), points.size());
  }
  return 0;
}
