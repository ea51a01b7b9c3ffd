// Microbenchmarks for the hot data structures of the simulator and the
// protocols (google-benchmark: event queue, Bloom filters, view merges,
// Zipf sampling, Chord routing steps, topology latency lookups), plus
// one subcommand that needs no google-benchmark:
//
//   ./bench_micro sweep quick json   # end-to-end smoke run per system
//                                    #   -> BENCH_micro.json
//   ./bench_micro                    # google-benchmark suite
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

#ifdef FLOWER_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>

#include "bloom/bloom_filter.h"
#include "bloom/summary.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dht/chord_ring.h"
#include "gossip/view.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace flower {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (int64_t i = 0; i < batch; ++i) {
      q.Push(static_cast<SimTime>(rng.Next() % 100000), []() {});
    }
    SimTime t = 0;
    while (q.RunNextIfBefore(kMaxSimTime, [&t](SimTime when) { t = when; })) {
    }
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(1);
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(i, [&count]() { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_BloomAdd(benchmark::State& state) {
  BloomFilter f(4000, 5);
  uint64_t k = 0;
  for (auto _ : state) {
    f.Add(k++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAdd);

void BM_BloomQuery(benchmark::State& state) {
  BloomFilter f(4000, 5);
  for (uint64_t k = 0; k < 500; ++k) f.Add(k);
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.MaybeContains(probe++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

// Objects of a 500-object site, in a random order, until a summary of
// them at the paper's geometry (m = 4000, k = 5) has at least `set_bits`
// bits set (or the whole site is in). 9, 60 and 107 set bits are near the
// mean fills of live summaries at the end of scale100k, scale16k/churn
// and paper runs (11, 64-66 and 109 at seed 101); the whole site sets
// 1865.
std::vector<ObjectId> SiteObjectsSettingBits(uint64_t seed,
                                             int64_t set_bits) {
  Rng rng(seed);
  BloomFilter filter(4000, 5);
  std::vector<ObjectId> ids;
  for (size_t object : rng.SampleIndices(500, 500)) {
    if (static_cast<int64_t>(filter.CountSetBits()) >= set_bits) break;
    ids.push_back(object);
    filter.Add(object);
  }
  return ids;
}

SummaryRef PaperSummary(const std::vector<ObjectId>& ids) {
  return ContentSummary::Build(500, 8, 5, [&ids](BloomFilter& f) {
    for (ObjectId id : ids) f.Add(id);
  });
}

// The query path's shape: one object of the site tested against every
// summary in a view of V_gossip = 50, each filled to range(1) set bits.
// range(0) = 0 hashes the key once per summary; 1 hashes it once per
// query through a shared BloomProbe.
void BM_BloomViewProbe(benchmark::State& state) {
  const bool shared_probe = state.range(0) != 0;
  std::vector<SummaryRef> view;
  for (uint64_t s = 0; s < 50; ++s) {
    view.push_back(PaperSummary(SiteObjectsSettingBits(s, state.range(1))));
  }
  uint64_t object = 0;
  for (auto _ : state) {
    const ObjectId id = object++ % 500;
    int hits = 0;
    if (shared_probe) {
      const BloomProbe probe(id);
      for (const SummaryRef& s : view) hits += s->MaybeContains(probe);
    } else {
      for (const SummaryRef& s : view) hits += s->MaybeContains(id);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_BloomViewProbe)
    ->Args({0, 107})
    ->Args({1, 9})
    ->Args({1, 60})
    ->Args({1, 107})
    ->Args({1, 1865});

// One summary build, as a peer makes when its content changed, filled to
// range(0) set bits. Includes freeing the previous snapshot.
void BM_SummaryRebuild(benchmark::State& state) {
  const std::vector<ObjectId> ids = SiteObjectsSettingBits(1, state.range(0));
  SummaryRef summary;
  for (auto _ : state) {
    summary = PaperSummary(ids);
    benchmark::DoNotOptimize(summary.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryRebuild)->Arg(9)->Arg(60)->Arg(107)->Arg(1865);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(500, 0.8);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_ViewMerge(benchmark::State& state) {
  Rng rng(1);
  const SummaryRef summary = PaperSummary({});
  std::vector<ViewEntry> incoming;
  for (int i = 0; i < 10; ++i) {
    ViewEntry e;
    e.addr = static_cast<PeerAddress>(100 + i);
    e.age = static_cast<int>(rng.Index(5));
    e.summary = summary;
    incoming.push_back(e);
  }
  std::vector<ViewEntry> seed;
  for (int i = 0; i < 50; ++i) {
    ViewEntry e;
    e.addr = static_cast<PeerAddress>(i);
    e.age = static_cast<int>(rng.Index(10));
    e.summary = summary;
    seed.push_back(e);
  }
  View view(50);
  view.Merge(seed, std::nullopt, 9999);
  for (auto _ : state) {
    View copy = view;
    copy.Merge(incoming, std::nullopt, 9999);
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_ViewMerge);

// 50 age-0 contacts without summaries in ascending address order: a
// directory's welcome as it goes on the wire.
std::vector<ViewEntry> WelcomeContacts(PeerAddress first) {
  std::vector<ViewEntry> contacts;
  for (int i = 0; i < 50; ++i) {
    ViewEntry e;
    e.addr = first + static_cast<PeerAddress>(7 * i);
    e.age = 0;
    contacts.push_back(e);
  }
  return contacts;
}

// A joining client's first merge: a welcome into an empty view of 50.
void BM_ViewWelcomeMerge(benchmark::State& state) {
  const std::vector<ViewEntry> contacts = WelcomeContacts(100);
  for (auto _ : state) {
    View view(50);
    view.Merge(contacts, std::nullopt, 9999);
    benchmark::DoNotOptimize(view.entries().data());
  }
}
BENCHMARK(BM_ViewWelcomeMerge);

// A churned client's re-welcome (the `churn` workload's shape): a welcome
// into a full view of aged entries that carry summaries, eight of them
// contacts the welcome names again. Each iteration copies the aged view
// first, as BM_ViewMerge does.
void BM_ViewRewelcomeMerge(benchmark::State& state) {
  Rng rng(1);
  const SummaryRef summary = PaperSummary({});
  std::vector<ViewEntry> aged;
  for (int i = 0; i < 50; ++i) {
    ViewEntry e;
    e.addr = static_cast<PeerAddress>(100 + 7 * 7 * i);
    e.age = 1 + static_cast<int>(rng.Index(12));
    e.summary = summary;
    aged.push_back(e);
  }
  View view(50);
  view.Merge(aged, std::nullopt, 9999);
  const std::vector<ViewEntry> contacts = WelcomeContacts(100);
  for (auto _ : state) {
    View copy = view;
    copy.Merge(contacts, std::nullopt, 9999);
    benchmark::DoNotOptimize(copy.entries().data());
  }
}
BENCHMARK(BM_ViewRewelcomeMerge);

void BM_TopologyLatency(benchmark::State& state) {
  SimConfig config;
  config.num_topology_nodes = 5000;
  Rng rng(1);
  Topology topo(config, &rng);
  Rng pick(2);
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(pick.Index(5000));
    NodeId b = static_cast<NodeId>(pick.Index(5000));
    benchmark::DoNotOptimize(topo.Latency(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyLatency);

void BM_ChordOracleNeighborRead(benchmark::State& state) {
  const int64_t n = state.range(0);
  SimConfig config;
  config.num_topology_nodes = static_cast<int>(n) + 10;
  Simulator sim(1);
  Topology topo(config, sim.rng());
  Network net(&sim, &topo);
  Metrics metrics(config);
  ChordConfig cc;
  cc.id_bits = 32;
  ChordRing ring(cc, &metrics);
  std::vector<std::unique_ptr<ChordNode>> nodes;
  for (int64_t i = 0; i < n; ++i) {
    Key id = ring.space().Clamp(Mix64(static_cast<uint64_t>(i) + 1));
    while (ring.Contains(id)) id = ring.space().Add(id, 1);
    auto node = std::make_unique<ChordNode>(&sim, &net, &ring, id);
    node->Activate(static_cast<NodeId>(i));
    node->JoinStructural();
    nodes.push_back(std::move(node));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nodes[i % nodes.size()]->successor());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChordOracleNeighborRead)->Arg(100)->Arg(1000);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

}  // namespace
}  // namespace flower
#endif  // FLOWER_HAVE_GOOGLE_BENCHMARK

namespace flower {
namespace {

/// A fast macro sweep: one short run per registered system, emitting the
/// full per-window trajectories through the driver's sinks.
int RunMicroSweep(int argc, char** argv) {
  bench::Driver driver("micro", argc, argv);
  // Scale the (already small) quick/paper config down to smoke size.
  SimConfig& base = driver.config();
  base.num_topology_nodes = std::min(base.num_topology_nodes, 800);
  base.num_websites = std::min(base.num_websites, 10);
  base.num_active_websites = std::min(base.num_active_websites, 3);
  base.max_content_overlay_size =
      std::min(base.max_content_overlay_size, 30);
  base.duration = std::min<SimTime>(base.duration, 2 * kHour);
  base.queries_per_second = std::min(base.queries_per_second, 2.0);
  driver.PrintHeader("Micro sweep: one short run per system");

  for (const std::string& system : SystemRegistry::Instance().Keys()) {
    driver.Enqueue(base, system, system);
  }
  std::vector<RunResult> runs = driver.RunQueued();

  std::printf("  %-22s %-12s %-12s %-14s\n", "system", "hit_ratio",
              "lookup_ms", "queries");
  for (const RunResult& r : runs) {
    std::printf("  %-22s %-12s %-12s %-14llu\n", r.system_name.c_str(),
                bench::Fmt(r.final_hit_ratio).c_str(),
                bench::Fmt(r.mean_lookup_ms, 1).c_str(),
                static_cast<unsigned long long>(r.queries_submitted));
  }
  return 0;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return flower::RunMicroSweep(argc - 1, argv + 1);
  }
#ifdef FLOWER_HAVE_GOOGLE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "google-benchmark unavailable at build time; only the "
               "`sweep` subcommand is supported\n");
  return 2;
#endif
}
