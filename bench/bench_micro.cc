// Microbenchmarks for the hot data structures of the simulator and the
// protocols (google-benchmark: event queue, Bloom filters, view merges,
// Zipf sampling, Chord routing steps, topology latency lookups), plus
// two subcommands that need no google-benchmark:
//
//   ./bench_micro sweep quick json   # end-to-end smoke run per system
//                                    #   -> BENCH_micro.json
//   ./bench_micro engine json        # simulation-engine suite: pooled
//                                    #   EventQueue vs the legacy
//                                    #   shared_ptr/std::function queue
//                                    #   -> BENCH_engine.json
//   ./bench_micro shards quick json  # sharded-engine scaling suite
//                                    #   (shards x executor)
//                                    #   -> BENCH_shards.json
//   ./bench_micro                    # google-benchmark suite
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "legacy_event_queue.h"
#include "sim/calendar_queue.h"
#include "sim/engine_queue.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

#ifdef FLOWER_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dht/chord_ring.h"
#include "gossip/view.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

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
    SimTime t;
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop(&t));
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

// The query path's shape: one object tested against every summary in a
// view of V_gossip = 50. Arg 0 hashes the key once per summary; arg 1
// hashes it once per query through a shared BloomProbe.
void BM_BloomViewProbe(benchmark::State& state) {
  const bool shared_probe = state.range(0) != 0;
  std::vector<ContentSummary> view;
  for (uint64_t s = 0; s < 50; ++s) {
    view.emplace_back(500, 8, 5);
    for (uint64_t k = 0; k < 100; ++k) {
      view.back().Add(Mix64(s * 1000 + k) % 500);
    }
  }
  uint64_t object = 0;
  for (auto _ : state) {
    const ObjectId id = object++ % 500;
    int hits = 0;
    if (shared_probe) {
      const BloomProbe probe(id);
      for (const ContentSummary& s : view) hits += s.MaybeContains(probe);
    } else {
      for (const ContentSummary& s : view) hits += s.MaybeContains(id);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_BloomViewProbe)->Arg(0)->Arg(1);

void BM_SummaryRebuild(benchmark::State& state) {
  const int64_t objects = state.range(0);
  std::vector<ObjectId> ids;
  for (int64_t i = 0; i < objects; ++i) {
    ids.push_back(Mix64(static_cast<uint64_t>(i)));
  }
  ContentSummary s(static_cast<int>(objects), 8, 5);
  for (auto _ : state) {
    s.Rebuild(ids);
  }
  state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_SummaryRebuild)->Arg(100)->Arg(500);

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
  auto summary = std::make_shared<ContentSummary>(500, 8, 5);
  std::vector<ViewEntry> incoming;
  for (int i = 0; i < 10; ++i) {
    ViewEntry e;
    e.addr = static_cast<PeerAddress>(100 + i);
    e.age = static_cast<int>(rng.Index(5));
    e.summary = summary;
    incoming.push_back(e);
  }
  View view(50);
  for (int i = 0; i < 50; ++i) {
    ViewEntry e;
    e.addr = static_cast<PeerAddress>(i);
    e.age = static_cast<int>(rng.Index(10));
    e.summary = summary;
    view.Insert(e, 9999);
  }
  for (auto _ : state) {
    View copy = view;
    copy.Merge(incoming, std::nullopt, 9999);
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_ViewMerge);

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
  ChordConfig cc;
  cc.id_bits = 32;
  ChordRing ring(cc);
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

// --- Engine microbenchmark suite (no google-benchmark needed) -----------------
//
// Measures the simulation engine's raw event throughput — push/pop,
// push/cancel/pop, and steady-state pop-one-push-one loops at several
// warm-queue depths — for three engines: the legacy
// shared_ptr/std::function queue, the pooled 4-ary heap EventQueue
// (`sim_engine=heap`), and the ladder CalendarQueue
// (`sim_engine=calendar`); plus end-to-end Simulator dispatch for the
// two production engines. The steady_64/steady_512 suites chart the
// crossover: at small live sets the heap's shallow sift beats the
// ladder's bucket machinery, at paper-scale sets the O(1) calendar
// wins. `json[=PATH]` writes BENCH_engine.json, the perf-trajectory
// file CI uploads, including one geomean summary row per engine.

/// The size class of the hot scheduling closures (message delivery
/// captures this+addresses+sizes+the message pointer, ~40 bytes): big
/// enough that std::function heap-allocates it, small enough for
/// EventFn's inline storage — exactly the gap the pool closes.
struct HotCapture {
  uint64_t a = 1, b = 2, c = 3, d = 4;
  uint64_t* sink = nullptr;
};

double MsBetween(std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Event times, generated outside the timed region so both engines
/// measure queue work, not RNG draws.
std::vector<SimTime> MakeTimes(int64_t n, SimTime range) {
  Rng rng(7);
  std::vector<SimTime> times(static_cast<size_t>(n));
  for (SimTime& t : times) {
    t = static_cast<SimTime>(rng.Next() % static_cast<uint64_t>(range));
  }
  return times;
}

/// Dispatches one pending event the way each engine's production run
/// loop does: the pooled queue invokes the callback in its slot
/// (RunNextIfBefore), the legacy queue moves the std::function out.
inline bool DispatchOne(EventQueue& q, SimTime* t) {
  return q.RunNextIfBefore(kMaxSimTime, [t](SimTime when) { *t = when; });
}
inline bool DispatchOne(CalendarQueue& q, SimTime* t) {
  return q.RunNextIfBefore(kMaxSimTime, [t](SimTime when) { *t = when; });
}
inline bool DispatchOne(bench::LegacyEventQueue& q, SimTime* t) {
  if (q.empty()) return false;
  auto fn = q.Pop(t);
  fn();
  return true;
}

/// Pushes `n` events at pseudorandom times, then drains through the
/// dispatch path.
template <typename Queue>
double SuitePushPop(int64_t n, uint64_t* sink) {
  const std::vector<SimTime> times = MakeTimes(n, 1000000);
  HotCapture cap;
  cap.sink = sink;
  const auto start = std::chrono::steady_clock::now();
  Queue q;
  for (int64_t i = 0; i < n; ++i) {
    q.Push(times[static_cast<size_t>(i)],
           [cap]() { *cap.sink += cap.a + cap.c; });
  }
  SimTime t;
  while (DispatchOne(q, &t)) {
  }
  return MsBetween(start, std::chrono::steady_clock::now());
}

template <typename Queue>
struct HandleOf;
template <>
struct HandleOf<EventQueue> {
  using type = EventHandle;
};
template <>
struct HandleOf<CalendarQueue> {
  using type = EventHandle;
};
template <>
struct HandleOf<bench::LegacyEventQueue> {
  using type = bench::LegacyEventHandle;
};

/// Pushes `n`, cancels every other event through its handle, drains.
template <typename Queue>
double SuitePushCancelPop(int64_t n, uint64_t* sink) {
  const std::vector<SimTime> times = MakeTimes(n, 1000000);
  HotCapture cap;
  cap.sink = sink;
  const auto start = std::chrono::steady_clock::now();
  Queue q;
  std::vector<typename HandleOf<Queue>::type> handles;
  handles.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    handles.push_back(q.Push(times[static_cast<size_t>(i)],
                             [cap]() { *cap.sink += cap.b; }));
  }
  for (int64_t i = 0; i < n; i += 2) {
    handles[static_cast<size_t>(i)].Cancel();
  }
  SimTime t;
  while (DispatchOne(q, &t)) {
  }
  return MsBetween(start, std::chrono::steady_clock::now());
}

/// Steady state: a warm queue of Depth pending events; each op
/// dispatches the earliest and pushes a replacement — the pool's
/// slot-reuse sweet spot, and the shape of a simulation in its main
/// phase. Depth=16384 is a paper-scale pending set (where the calendar's
/// O(1) amortized ops pay off); 64 and 512 chart the small-warm-queue
/// crossover against the heap's shallow O(log n) sift.
template <typename Queue, int64_t Depth>
double SuiteSteadyState(int64_t n, uint64_t* sink) {
  const std::vector<SimTime> times = MakeTimes(n + Depth, 10000);
  HotCapture cap;
  cap.sink = sink;
  const auto start = std::chrono::steady_clock::now();
  Queue q;
  for (int64_t i = 0; i < Depth; ++i) {
    q.Push(times[static_cast<size_t>(i)], [cap]() { *cap.sink += cap.d; });
  }
  SimTime t = 0;
  for (int64_t i = 0; i < n; ++i) {
    DispatchOne(q, &t);
    q.Push(t + 1 + times[static_cast<size_t>(Depth + i)],
           [cap]() { *cap.sink += cap.d; });
  }
  return MsBetween(start, std::chrono::steady_clock::now());
}

/// The production message-delivery shape (Network::Send): every event
/// owns a heap message. The legacy engine needed a shared_ptr holder
/// around the unique_ptr (std::function requires copyable callables)
/// plus the std::function allocation — three allocations per delivery;
/// the pooled engine moves the unique_ptr straight into the slot-stored
/// closure — one (the message itself).
struct FakeMsg {
  uint64_t payload[12] = {1};  // ~100 B, a small protocol message
};

double SuiteDeliveryLegacy(int64_t n, uint64_t* sink) {
  constexpr int64_t kDepth = 16384;
  const std::vector<SimTime> times = MakeTimes(n + kDepth, 10000);
  const auto start = std::chrono::steady_clock::now();
  bench::LegacyEventQueue q;
  auto send = [&q, sink](SimTime at) {
    auto msg = std::make_unique<FakeMsg>();
    auto holder = std::make_shared<std::unique_ptr<FakeMsg>>(std::move(msg));
    q.Push(at, [holder, sink]() { *sink += (*holder)->payload[0]; });
  };
  for (int64_t i = 0; i < kDepth; ++i) {
    send(times[static_cast<size_t>(i)]);
  }
  SimTime t = 0;
  for (int64_t i = 0; i < n; ++i) {
    DispatchOne(q, &t);
    send(t + 1 + times[static_cast<size_t>(kDepth + i)]);
  }
  return MsBetween(start, std::chrono::steady_clock::now());
}

/// Slot-pool engines (heap and calendar) move the unique_ptr straight
/// into the slot-stored closure — one allocation (the message itself).
template <typename Queue>
double SuiteDeliveryPooled(int64_t n, uint64_t* sink) {
  constexpr int64_t kDepth = 16384;
  const std::vector<SimTime> times = MakeTimes(n + kDepth, 10000);
  const auto start = std::chrono::steady_clock::now();
  Queue q;
  auto send = [&q, sink](SimTime at) {
    auto msg = std::make_unique<FakeMsg>();
    q.Push(at, [m = std::move(msg), sink]() { *sink += m->payload[0]; });
  };
  for (int64_t i = 0; i < kDepth; ++i) {
    send(times[static_cast<size_t>(i)]);
  }
  SimTime t = 0;
  for (int64_t i = 0; i < n; ++i) {
    DispatchOne(q, &t);
    send(t + 1 + times[static_cast<size_t>(kDepth + i)]);
  }
  return MsBetween(start, std::chrono::steady_clock::now());
}

/// End-to-end Simulator dispatch (production engines only: the
/// Simulator is the production wiring around the queue).
double SuiteSimDispatch(int64_t n, uint64_t* sink, SimEngine engine) {
  HotCapture cap;
  cap.sink = sink;
  const auto start = std::chrono::steady_clock::now();
  Simulator sim(1, engine);
  for (int64_t i = 0; i < n; ++i) {
    sim.Schedule(i % 100000, [cap]() { *cap.sink += cap.a; });
  }
  sim.Run();
  return MsBetween(start, std::chrono::steady_clock::now());
}
double SuiteSimDispatchHeap(int64_t n, uint64_t* sink) {
  return SuiteSimDispatch(n, sink, SimEngine::kHeap);
}
double SuiteSimDispatchCalendar(int64_t n, uint64_t* sink) {
  return SuiteSimDispatch(n, sink, SimEngine::kCalendar);
}

struct EngineRecord {
  std::string suite;
  std::string engine;  // "legacy" | "pooled" (heap) | "calendar"
  int64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  double speedup_vs_legacy = 0;  // pooled/calendar records only; 0 = n/a
  double speedup_vs_pooled = 0;  // calendar records only; 0 = n/a
};

/// Best-of-`reps` wall time for one suite body.
template <typename SuiteFn>
EngineRecord MeasureSuite(const std::string& suite,
                          const std::string& engine, int64_t events,
                          int reps, uint64_t* sink, SuiteFn body) {
  double best_ms = 0;
  for (int r = 0; r < reps; ++r) {
    double ms = body(events, sink);
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  EngineRecord rec;
  rec.suite = suite;
  rec.engine = engine;
  rec.events = events;
  rec.wall_ms = best_ms;
  rec.events_per_sec =
      best_ms > 0 ? static_cast<double>(events) / (best_ms / 1000.0) : 0;
  return rec;
}

void WriteEngineJson(const std::string& path,
                     const std::vector<EngineRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const EngineRecord& r = records[i];
    std::fprintf(f,
                 "  {\"suite\":\"%s\",\"engine\":\"%s\",\"events\":%lld,"
                 "\"wall_ms\":%.3f,\"events_per_sec\":%.0f",
                 r.suite.c_str(), r.engine.c_str(),
                 static_cast<long long>(r.events), r.wall_ms,
                 r.events_per_sec);
    if (r.speedup_vs_legacy > 0) {
      std::fprintf(f, ",\"speedup_vs_legacy\":%.2f", r.speedup_vs_legacy);
    }
    if (r.speedup_vs_pooled > 0) {
      std::fprintf(f, ",\"speedup_vs_pooled\":%.2f", r.speedup_vs_pooled);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

int RunEngineBench(int argc, char** argv) {
  int64_t events = 400000;
  int reps = 5;
  std::string json_path;
  for (int a = 1; a < argc; ++a) {
    std::string tok = argv[a];
    size_t eq = tok.find('=');
    std::string key = eq == std::string::npos ? tok : tok.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (key == "json") {
      json_path = value.empty() ? "BENCH_engine.json" : value;
    } else if (key == "events") {
      events = std::atoll(value.c_str());
    } else if (key == "reps") {
      reps = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro engine [json[=PATH]] [events=N] "
                   "[reps=N]\n");
      return 1;
    }
  }
  if (events < 1 || reps < 1) {
    std::fprintf(stderr, "events/reps must be >= 1\n");
    return 1;
  }

  std::printf("Engine microbenchmark: legacy vs pooled heap vs calendar "
              "(events=%lld, best of %d)\n",
              static_cast<long long>(events), reps);
  std::printf("  %-16s %-9s %-12s %-14s %-10s %-10s\n", "suite", "engine",
              "wall_ms", "events/sec", "vs_legacy", "vs_pooled");

  uint64_t sink = 0;
  std::vector<EngineRecord> records;
  struct Suite {
    const char* name;
    double (*legacy)(int64_t, uint64_t*);
    double (*pooled)(int64_t, uint64_t*);
    double (*calendar)(int64_t, uint64_t*);
  };
  const Suite suites[] = {
      {"push_pop", &SuitePushPop<bench::LegacyEventQueue>,
       &SuitePushPop<EventQueue>, &SuitePushPop<CalendarQueue>},
      {"push_cancel_pop", &SuitePushCancelPop<bench::LegacyEventQueue>,
       &SuitePushCancelPop<EventQueue>, &SuitePushCancelPop<CalendarQueue>},
      {"steady_64", &SuiteSteadyState<bench::LegacyEventQueue, 64>,
       &SuiteSteadyState<EventQueue, 64>,
       &SuiteSteadyState<CalendarQueue, 64>},
      {"steady_512", &SuiteSteadyState<bench::LegacyEventQueue, 512>,
       &SuiteSteadyState<EventQueue, 512>,
       &SuiteSteadyState<CalendarQueue, 512>},
      {"steady_state", &SuiteSteadyState<bench::LegacyEventQueue, 16384>,
       &SuiteSteadyState<EventQueue, 16384>,
       &SuiteSteadyState<CalendarQueue, 16384>},
      {"message_delivery", &SuiteDeliveryLegacy,
       &SuiteDeliveryPooled<EventQueue>, &SuiteDeliveryPooled<CalendarQueue>},
  };

  const auto print_row = [](const EngineRecord& r) {
    std::printf("  %-16s %-9s %-12s %-14s %-10s %-10s\n", r.suite.c_str(),
                r.engine.c_str(), bench::Fmt(r.wall_ms, 2).c_str(),
                bench::Fmt(r.events_per_sec, 0).c_str(),
                r.speedup_vs_legacy > 0
                    ? (bench::Fmt(r.speedup_vs_legacy, 2) + "x").c_str()
                    : "-",
                r.speedup_vs_pooled > 0
                    ? (bench::Fmt(r.speedup_vs_pooled, 2) + "x").c_str()
                    : "-");
  };

  double pooled_product = 1.0;
  double calendar_legacy_product = 1.0;
  double calendar_pooled_product = 1.0;
  for (const Suite& suite : suites) {
    EngineRecord legacy =
        MeasureSuite(suite.name, "legacy", events, reps, &sink, suite.legacy);
    EngineRecord pooled =
        MeasureSuite(suite.name, "pooled", events, reps, &sink, suite.pooled);
    EngineRecord calendar = MeasureSuite(suite.name, "calendar", events,
                                         reps, &sink, suite.calendar);
    pooled.speedup_vs_legacy =
        legacy.wall_ms > 0 ? legacy.wall_ms / pooled.wall_ms : 0;
    calendar.speedup_vs_legacy =
        legacy.wall_ms > 0 ? legacy.wall_ms / calendar.wall_ms : 0;
    calendar.speedup_vs_pooled =
        pooled.wall_ms > 0 ? pooled.wall_ms / calendar.wall_ms : 0;
    pooled_product *= pooled.speedup_vs_legacy;
    calendar_legacy_product *= calendar.speedup_vs_legacy;
    calendar_pooled_product *= calendar.speedup_vs_pooled;
    print_row(legacy);
    print_row(pooled);
    print_row(calendar);
    records.push_back(legacy);
    records.push_back(pooled);
    records.push_back(calendar);
  }
  EngineRecord dispatch_heap = MeasureSuite("sim_dispatch", "pooled", events,
                                            reps, &sink, &SuiteSimDispatchHeap);
  EngineRecord dispatch_cal = MeasureSuite(
      "sim_dispatch", "calendar", events, reps, &sink,
      &SuiteSimDispatchCalendar);
  dispatch_cal.speedup_vs_pooled = dispatch_heap.wall_ms > 0
                                       ? dispatch_heap.wall_ms /
                                             dispatch_cal.wall_ms
                                       : 0;
  print_row(dispatch_heap);
  print_row(dispatch_cal);
  records.push_back(dispatch_heap);
  records.push_back(dispatch_cal);

  const double n_suites = static_cast<double>(std::size(suites));
  EngineRecord geo_pooled;
  geo_pooled.suite = "geomean";
  geo_pooled.engine = "pooled";
  geo_pooled.speedup_vs_legacy = std::pow(pooled_product, 1.0 / n_suites);
  EngineRecord geo_calendar;
  geo_calendar.suite = "geomean";
  geo_calendar.engine = "calendar";
  geo_calendar.speedup_vs_legacy =
      std::pow(calendar_legacy_product, 1.0 / n_suites);
  geo_calendar.speedup_vs_pooled =
      std::pow(calendar_pooled_product, 1.0 / n_suites);
  records.push_back(geo_pooled);
  records.push_back(geo_calendar);
  std::printf("\n  geomean speedup pooled vs legacy:   %sx\n",
              bench::Fmt(geo_pooled.speedup_vs_legacy, 2).c_str());
  std::printf("  geomean speedup calendar vs legacy: %sx\n",
              bench::Fmt(geo_calendar.speedup_vs_legacy, 2).c_str());
  std::printf("  geomean speedup calendar vs pooled: %sx\n",
              bench::Fmt(geo_calendar.speedup_vs_pooled, 2).c_str());
  if (!json_path.empty()) {
    WriteEngineJson(json_path, records);
    std::printf("  wrote %s\n", json_path.c_str());
  }
  // Keep the compiler from eliding the callbacks entirely.
  if (sink == 0) std::printf("  (sink=0)\n");
  return 0;
}

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

// --- Sharded-engine scaling suite ---------------------------------------------
//
// One end-to-end Flower run per (shards, executor) point: shards=1 is
// the serial engine baseline; shards >= 2 runs the locality-lane engine
// cooperatively and (where the system supports it) on the thread pool.
// Metrics (hit ratio, events) are asserted stable across sharded points;
// wall_ms/ev-s are host measurements -> BENCH_shards.json, uploaded by
// the shards=2 CI job. Real speedups need real cores; on one core the
// suite mainly tracks the sharding overhead.

struct ShardsRecord {
  std::string label;
  int shards = 1;
  std::string executor;
  uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  double hit_ratio = 0;
  double speedup_vs_serial = 0;
};

void WriteShardsJson(const std::string& path,
                     const std::vector<ShardsRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ShardsRecord& r = records[i];
    std::fprintf(f,
                 "  {\"label\":\"%s\",\"shards\":%d,\"executor\":\"%s\","
                 "\"events\":%llu,\"wall_ms\":%.3f,"
                 "\"events_per_sec\":%.0f,\"hit_ratio\":%.6f,"
                 "\"speedup_vs_serial\":%.2f}%s\n",
                 r.label.c_str(), r.shards, r.executor.c_str(),
                 static_cast<unsigned long long>(r.events), r.wall_ms,
                 r.events_per_sec, r.hit_ratio, r.speedup_vs_serial,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

int RunShardsBench(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    std::string tok = argv[a];
    if (tok == "quick") {
      quick = true;
      continue;
    }
    size_t eq = tok.find('=');
    std::string key = eq == std::string::npos ? tok : tok.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (key == "json") {
      json_path = value.empty() ? "BENCH_shards.json" : value;
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro shards [quick] [json[=PATH]]\n");
      return 1;
    }
  }

  SimConfig base = quick ? bench::QuickConfig() : bench::PaperConfig();
  if (quick) base.duration = 2 * kHour;

  struct Point {
    int shards;
    const char* executor;  // shard_executor value
  };
  const Point points[] = {{1, "serial"},
                          {2, "serial"},
                          {2, "threads"},
                          {4, "threads"},
                          {6, "threads"}};

  std::printf("Sharded-engine scaling (flower, %s config, %lld h, "
              "%u hardware threads)\n",
              quick ? "quick" : "paper",
              static_cast<long long>(base.duration / kHour),
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("  note: single hardware thread — expect the suite to "
                "show sharding overhead, not speedup\n");
  }
  std::printf("  %-10s %-10s %-12s %-12s %-14s %-10s\n", "shards",
              "executor", "events", "wall_ms", "events/sec", "speedup");

  std::vector<ShardsRecord> records;
  double serial_wall = 0;
  for (const Point& p : points) {
    SimConfig c = base;
    c.shards = p.shards;
    c.shard_executor = p.executor;
    RunResult r = Experiment(c).WithSystem("flower").Run();
    ShardsRecord rec;
    rec.label = std::string("shards=") + std::to_string(p.shards) + "/" +
                p.executor;
    rec.shards = p.shards;
    rec.executor = p.executor;
    rec.events = r.events_processed;
    rec.wall_ms = r.wall_ms;
    rec.events_per_sec = r.EventsPerSec();
    rec.hit_ratio = r.final_hit_ratio;
    if (p.shards == 1) serial_wall = r.wall_ms;
    rec.speedup_vs_serial =
        serial_wall > 0 && r.wall_ms > 0 ? serial_wall / r.wall_ms : 0;
    records.push_back(rec);
    std::printf("  %-10d %-10s %-12llu %-12s %-14s %-10s\n", p.shards,
                p.executor,
                static_cast<unsigned long long>(rec.events),
                bench::Fmt(rec.wall_ms, 1).c_str(),
                bench::Fmt(rec.events_per_sec, 0).c_str(),
                p.shards == 1
                    ? "-"
                    : (bench::Fmt(rec.speedup_vs_serial, 2) + "x").c_str());
  }
  // Cross-check: every sharded point must report the identical
  // deterministic run (the executors/groupings may differ, the schedule
  // may not).
  for (size_t i = 2; i < records.size(); ++i) {
    if (records[i].events != records[1].events ||
        records[i].hit_ratio != records[1].hit_ratio) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s diverged from %s\n",
                   records[i].label.c_str(), records[1].label.c_str());
      return 1;
    }
  }
  std::printf("  sharded points agree on events + hit ratio "
              "(determinism cross-check passed)\n");
  if (!json_path.empty()) {
    WriteShardsJson(json_path, records);
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace flower

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return flower::RunMicroSweep(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "engine") == 0) {
    return flower::RunEngineBench(argc - 1, argv + 1);
  }
  if (argc > 1 && std::strcmp(argv[1], "shards") == 0) {
    return flower::RunShardsBench(argc - 1, argv + 1);
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
               "`sweep`, `engine` and `shards` subcommands are "
               "supported\n");
  return 2;
#endif
}
