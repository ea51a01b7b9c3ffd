#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace flower {
namespace bench {

SimConfig PaperConfig() {
  SimConfig c;  // defaults are the paper's Table 1 already
  return c;
}

SimConfig QuickConfig() {
  SimConfig c;
  c.num_topology_nodes = 1500;
  c.num_websites = 30;
  c.num_active_websites = 4;
  c.max_content_overlay_size = 50;
  c.queries_per_second = 3.0;
  c.duration = 6 * kHour;
  return c;
}

Driver::Driver(std::string name, int argc, char** argv)
    : name_(std::move(name)), config_(PaperConfig()) {
  int start = 1;
  if (argc > 1 && std::strcmp(argv[1], "quick") == 0) {
    config_ = QuickConfig();
    start = 2;
  }
  for (int a = start; a < argc; ++a) {
    std::string tok = argv[a];
    size_t eq = tok.find('=');
    std::string key = eq == std::string::npos ? tok : tok.substr(0, eq);
    if (key == "jobs") {
      int jobs = eq == std::string::npos ? 0 : std::atoi(tok.c_str() + eq + 1);
      if (jobs < 1) {
        std::fprintf(stderr, "jobs=N requires N >= 1, got %s\n", tok.c_str());
        std::exit(1);
      }
      sweep_ = SweepRunner(jobs);
      continue;
    }
    if (key == "json") {
      std::string path = eq == std::string::npos ? "" : tok.substr(eq + 1);
      if (path.empty()) path = "BENCH_" + name_ + ".json";
      sinks_.push_back(std::make_unique<JsonResultSink>(path));
      continue;
    }
    if (eq == std::string::npos) {
      std::fprintf(stderr, "expected key=value, got %s\n", tok.c_str());
      std::exit(1);
    }
    Status s = config_.Apply(key, tok.substr(eq + 1));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
}

Driver::~Driver() {
  for (std::unique_ptr<ResultSink>& sink : sinks_) sink->Flush();
}

void Driver::PrintHeader(const std::string& title) const {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("  %s\n", config_.ToString().c_str());
  std::printf("==============================================================\n");
}

size_t Driver::Enqueue(const SimConfig& config, const std::string& system,
                       const std::string& label) {
  return sweep_.Add(config, system, label);
}

std::vector<RunResult> Driver::RunQueued() {
  std::vector<ResultSink*> sinks;
  sinks.reserve(sinks_.size());
  for (std::unique_ptr<ResultSink>& sink : sinks_) sinks.push_back(sink.get());
  Result<std::vector<RunResult>> results = sweep_.Run(sinks);
  if (!results.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 results.status().ToString().c_str());
    // Flush the sinks so results committed before the failing point are
    // not lost (same contract as Experiment::Run).
    for (std::unique_ptr<ResultSink>& sink : sinks_) sink->Flush();
    std::exit(1);
  }
  return std::move(results).value();
}

RunResult Driver::Run(const SimConfig& config, const std::string& system,
                      const std::string& label) {
  size_t index = Enqueue(config, system, label);
  std::vector<RunResult> results = RunQueued();
  return std::move(results[index]);
}

RunResult Driver::Run(const std::string& system, const std::string& label) {
  return Run(config_, system, label);
}

void PrintComparison(const std::string& what, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-44s paper: %-14s measured: %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

std::string Fmt(double v, int decimals) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << v;
  return os.str();
}

}  // namespace bench
}  // namespace flower
