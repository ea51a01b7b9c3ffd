// Golden test for parallel sweep execution (src/api/sweep.h): a jobs=4
// sweep must produce byte-identical sink output (text, JSON) and
// identical results to the serial jobs=1 run — results are committed in
// submission order regardless of which worker finishes first.
#include "api/sweep.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A small sweep mixing systems and config variations, so points have
/// different run times and a racing pool would expose ordering bugs.
void FillSweep(SweepRunner* sweep) {
  SimConfig base = TinyConfig();
  base.duration = 1 * kHour;
  int index = 0;
  for (uint64_t seed : {42u, 43u}) {
    for (const char* system : {"flower", "squirrel"}) {
      SimConfig c = base;
      c.seed = seed;
      // Vary the load so the points finish at different times.
      c.queries_per_second = 1.0 + index;
      sweep->Add(c, system,
                 std::string(system) + "/seed=" + std::to_string(seed));
      ++index;
    }
  }
}

/// Runs FillSweep's points with the given parallelism, writing both sink
/// formats; returns {text, json} file contents.
struct SweepOutput {
  std::string text;
  std::string json;
  std::vector<RunResult> results;
};

void RunWith(int jobs, const std::string& tag, SweepOutput* out) {
  const std::string text_path = TempPath("sweep_" + tag + ".txt");
  const std::string json_path = TempPath("sweep_" + tag + ".json");

  {
    std::FILE* text_file = std::fopen(text_path.c_str(), "w");
    ASSERT_NE(text_file, nullptr);
    TextSummarySink text(text_file);
    JsonResultSink json(json_path);
    SweepRunner sweep(jobs);
    FillSweep(&sweep);
    Result<std::vector<RunResult>> results = sweep.Run({&text, &json});
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    out->results = std::move(results).value();
    json.Flush();
    std::fclose(text_file);
  }
  out->text = ReadFile(text_path);
  out->json = ReadFile(json_path);
}

TEST(SweepParallelGolden, Jobs4MatchesSerialByteForByte) {
  SweepOutput serial;
  RunWith(1, "serial", &serial);
  SweepOutput parallel;
  RunWith(4, "jobs4", &parallel);

  ASSERT_EQ(serial.results.size(), 4u);
  ASSERT_EQ(parallel.results.size(), 4u);

  EXPECT_FALSE(serial.json.empty());
  EXPECT_EQ(serial.text, parallel.text) << "text sink must be identical";
  EXPECT_EQ(serial.json, parallel.json) << "JSON sink must be identical";

  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].label, parallel.results[i].label)
        << "submission order must be preserved";
    EXPECT_EQ(serial.results[i].queries_submitted,
              parallel.results[i].queries_submitted);
    EXPECT_EQ(serial.results[i].events_processed,
              parallel.results[i].events_processed);
    EXPECT_DOUBLE_EQ(serial.results[i].final_hit_ratio,
                     parallel.results[i].final_hit_ratio);
    EXPECT_DOUBLE_EQ(serial.results[i].mean_lookup_ms,
                     parallel.results[i].mean_lookup_ms);
  }
}

TEST(SweepParallelTest, ErrorInOnePointReportsFirstInSubmissionOrder) {
  SweepRunner sweep(4);
  SimConfig good = TinyConfig();
  good.duration = 30 * kMinute;
  sweep.Add(good, "flower", "ok");
  SimConfig bad = good;
  sweep.Add(bad, "no-such-system", "broken");
  JsonResultSink json(TempPath("sweep_error.json"));
  Result<std::vector<RunResult>> r = sweep.Run({&json});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(json.records(), 1u)
      << "points before the failure stay committed";
}

TEST(SweepParallelTest, RunClearsTheQueue) {
  SweepRunner sweep(2);
  SimConfig c = TinyConfig();
  c.duration = 30 * kMinute;
  sweep.Add(c, "flower");
  EXPECT_EQ(sweep.size(), 1u);
  Result<std::vector<RunResult>> first = sweep.Run({});
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(sweep.empty());
  Result<std::vector<RunResult>> second = sweep.Run({});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().empty());
}

}  // namespace
}  // namespace flower
