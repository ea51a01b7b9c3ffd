// The host-speed probe: a fixed miniature discrete-event simulation that
// shares no code with src/. A binary heap of timestamped callbacks and a
// hash table of per-node vectors, about 60 MB together, that every event
// looks up and updates: the same dependent, scattered memory reads the
// simulator's event loop spends its time on. On a shared host both slow
// down together when other tenants load the memory system, so host times
// divided by the probe's drift two to three times less than raw ones
// (README.md, Host speed). A pass allocates nothing, so neither a change
// to src/ nor a replaced allocator moves the probe.
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "perf.h"

namespace perf {

namespace {

constexpr uint64_t kNodes = 300000;
constexpr int kEventsPerPass = 360000;

uint64_t NodeKey(uint64_t node) { return node * 0x9e3779b97f4a7c15ULL; }

}  // namespace

struct HostProbe::World {
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> fn;  // captures fit std::function's inline buffer
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  uint64_t rng_state = 42;
  uint64_t seq = 0;
  uint64_t checksum = 0;
  std::unordered_map<uint64_t, std::vector<uint32_t>> nodes;
  std::priority_queue<Event, std::vector<Event>, Later> queue;

  /// splitmix64: the probe's own generator, so it never depends on src/.
  uint64_t Next() {
    uint64_t z = (rng_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  World() {
    nodes.reserve(kNodes);
    for (uint64_t i = 0; i < kNodes; ++i) nodes[NodeKey(i)].resize(16 + Next() % 32);
    for (uint64_t i = 0; i < kNodes / 2; ++i) queue.push({Next() % 1000, seq++, [] {}});
  }

  /// Runs kEventsPerPass events. The queue keeps its size (one push per
  /// pop), so every pass does the same work.
  void Pass() {
    for (int i = 0; i < kEventsPerPass; ++i) {
      const Event event = queue.top();
      queue.pop();
      event.fn();
      std::vector<uint32_t>& state = nodes[NodeKey(Next() % kNodes)];
      state[Next() % state.size()] += 1;
      checksum += state[0];
      const uint64_t x = Next();
      queue.push({event.time + x % 500, seq++, [this, x] { checksum += x & 0xff; }});
    }
  }
};

HostProbe::HostProbe() : world_(std::make_unique<World>()) { world_->Pass(); }

HostProbe::~HostProbe() = default;

double HostProbe::PassSeconds() {
  const auto start = std::chrono::steady_clock::now();
  world_->Pass();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perf
