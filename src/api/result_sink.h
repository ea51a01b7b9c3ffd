// Experiment API v2, output side: ResultSinks receive every completed
// run. A sink outlives the Experiments it is attached to, so one sink can
// collect a whole bench sweep (that is how BENCH_*.json trajectory files
// are produced). Two sinks exist: text summary lines for people, and
// JSON, the one machine-readable format.
#ifndef FLOWERCDN_API_RESULT_SINK_H_
#define FLOWERCDN_API_RESULT_SINK_H_

#include <cstdio>
#include <string>
#include <vector>

#include "api/run_result.h"

namespace flower {

struct SimConfig;

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once per completed run.
  virtual void Write(const SimConfig& config, const RunResult& result) = 0;

  /// Flushes buffered output (the JSON sink writes its file here; also
  /// invoked by the destructor of sinks that buffer).
  virtual void Flush() {}
};

/// Prints FormatRunSummary lines, the v1 driver output format.
class TextSummarySink : public ResultSink {
 public:
  explicit TextSummarySink(std::FILE* out = stdout,
                           std::string indent = "  ");
  void Write(const SimConfig& config, const RunResult& result) override;

 private:
  std::FILE* out_;
  std::string indent_;
};

/// Collects runs and writes one JSON array file on Flush/destruction.
/// Each record carries the run's identity (system, label, seed, config
/// line), the headline metrics, the subsystem counters and the per-window
/// trajectories — the machine-readable BENCH_*.json format.
class JsonResultSink : public ResultSink {
 public:
  explicit JsonResultSink(std::string path);
  ~JsonResultSink() override;

  void Write(const SimConfig& config, const RunResult& result) override;
  void Flush() override;

  size_t records() const { return records_.size(); }

 private:
  std::string path_;
  std::vector<std::string> records_;
  bool dirty_ = false;
};

}  // namespace flower

#endif  // FLOWERCDN_API_RESULT_SINK_H_
