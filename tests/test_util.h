// Shared fixtures/helpers for the Flower-CDN test suite.
#ifndef FLOWERCDN_TESTS_TEST_UTIL_H_
#define FLOWERCDN_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/experiment.h"
#include "api/result_sink.h"
#include "common/config.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace flower {

/// A small deterministic world: simulator + topology + network.
class TestWorld {
 public:
  explicit TestWorld(SimConfig config, uint64_t seed = 42)
      : config_(std::move(config)), sim_(seed) {
    topology_ = std::make_unique<Topology>(config_, sim_.rng());
    network_ = std::make_unique<Network>(&sim_, topology_.get());
  }

  const SimConfig& config() const { return config_; }
  Simulator* sim() { return &sim_; }
  Topology* topology() { return topology_.get(); }
  Network* network() { return network_.get(); }

 private:
  SimConfig config_;
  Simulator sim_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Network> network_;
};

inline SimConfig TinyConfig() {
  SimConfig c;
  c.num_topology_nodes = 300;
  c.num_localities = 3;
  c.locality_weights = {0.4, 0.35, 0.25};
  c.num_websites = 5;
  c.num_active_websites = 2;
  c.num_objects_per_website = 50;
  c.max_content_overlay_size = 15;
  c.queries_per_second = 2.0;
  c.duration = 2 * kHour;
  c.gossip_period = 5 * kMinute;
  c.keepalive_period = 5 * kMinute;
  c.metrics_window = 15 * kMinute;
  return c;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// What the text and the JSON sink wrote for one run, and its result.
struct SinkBytes {
  std::string text;
  std::string json;
  RunResult result;
};

/// Runs `experiment` with a text and a JSON sink attached; `tag` names
/// the scratch files the sinks write.
inline SinkBytes RunWithSinks(Experiment experiment, const std::string& tag) {
  const std::string text_path = ::testing::TempDir() + tag + ".txt";
  const std::string json_path = ::testing::TempDir() + tag + ".json";
  std::FILE* text_file = std::fopen(text_path.c_str(), "w");
  if (text_file == nullptr) {
    ADD_FAILURE() << "cannot write " << text_path;
    return {};
  }
  SinkBytes out;
  {
    TextSummarySink text(text_file);
    JsonResultSink json(json_path);  // writes its file when destroyed
    out.result = experiment.AddSink(&text).AddSink(&json).Run();
  }
  std::fclose(text_file);
  out.text = ReadFile(text_path);
  out.json = ReadFile(json_path);
  std::remove(text_path.c_str());
  std::remove(json_path.c_str());
  return out;
}

}  // namespace flower

#endif  // FLOWERCDN_TESTS_TEST_UTIL_H_
