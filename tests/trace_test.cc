#include "workload/trace.h"

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace flower {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : config_(TinyConfig()), rng_(1), topo_(config_, &rng_) {
    DRingIdScheme scheme(config_.chord_id_bits, config_.locality_id_bits, 0);
    catalog_ = std::make_unique<WebsiteCatalog>(config_, scheme);
    Rng plan_rng(2);
    deployment_ = Deployment::Plan(config_, topo_, &plan_rng);
    // Unique path per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "/trace_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
  }

  SimConfig config_;
  Rng rng_;
  Topology topo_;
  std::unique_ptr<WebsiteCatalog> catalog_;
  Deployment deployment_;
  std::string path_;
};

TEST_F(TraceTest, RecordCapturesWholeWorkload) {
  WorkloadGenerator gen(config_, deployment_, *catalog_, 7);
  Trace trace = Trace::Record(&gen);
  EXPECT_EQ(trace.size(), gen.events_generated());
  EXPECT_FALSE(trace.empty());
}

TEST_F(TraceTest, SaveLoadRoundTrip) {
  WorkloadGenerator gen(config_, deployment_, *catalog_, 7);
  Trace original = Trace::Record(&gen);
  ASSERT_TRUE(original.Save(path_).ok());

  Result<Trace> loaded = Trace::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const QueryEvent& a = original.events()[i];
    const QueryEvent& b = loaded.value().events()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.website, b.website);
    EXPECT_EQ(a.object_rank, b.object_rank);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.locality, b.locality);
  }
  std::remove(path_.c_str());
}

TEST_F(TraceTest, SaveWritesV1) {
  WorkloadGenerator gen(config_, deployment_, *catalog_, 7);
  Trace trace = Trace::Record(&gen);
  ASSERT_FALSE(trace.empty());
  ASSERT_TRUE(trace.Save(path_).ok());
  std::FILE* f = std::fopen(path_.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line).rfind("flower-trace v1 ", 0), 0u);
  // Six fields per event line: no size column.
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  std::istringstream fields(line);
  std::string field;
  int count = 0;
  while (fields >> field) ++count;
  EXPECT_EQ(count, 6) << line;
  std::remove(path_.c_str());
}

TEST_F(TraceTest, LoadsV1FilesWithoutSizes) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fprintf(f, "flower-trace v1 2\n");
  std::fprintf(f, "100 0 1 42 7 0\n");
  std::fprintf(f, "250 1 3 99 8 2\n");
  std::fclose(f);
  Result<Trace> r = Trace::Load(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value().events()[0].time, 100);
  EXPECT_EQ(r.value().events()[0].object, 42u);
  EXPECT_EQ(r.value().events()[1].locality, 2u);
  std::remove(path_.c_str());
}

TEST_F(TraceTest, LoadsV2FilesDroppingTheSizeColumn) {
  // A v2 fixture: the six v1 fields plus a per-object size in bits.
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fprintf(f, "flower-trace v2 2\n");
  std::fprintf(f, "100 0 1 42 7 0 81920\n");
  std::fprintf(f, "250 1 3 99 8 2 16384\n");
  std::fclose(f);
  Result<Trace> r = Trace::Load(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 2u);
  const QueryEvent& second = r.value().events()[1];
  EXPECT_EQ(second.time, 250);
  EXPECT_EQ(second.website, 1u);
  EXPECT_EQ(second.object_rank, 3u);
  EXPECT_EQ(second.object, 99u);
  EXPECT_EQ(second.node, 8u);
  EXPECT_EQ(second.locality, 2u);

  // A v2 row without its size column is malformed.
  f = std::fopen(path_.c_str(), "w");
  std::fprintf(f, "flower-trace v2 1\n");
  std::fprintf(f, "100 0 1 42 7 0\n");
  std::fclose(f);
  r = Trace::Load(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path_.c_str());
}

TEST_F(TraceTest, RejectsUnknownVersion) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fprintf(f, "flower-trace v3 0\n");
  std::fclose(f);
  Result<Trace> r = Trace::Load(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path_.c_str());
}

TEST_F(TraceTest, LoadMissingFileFails) {
  Result<Trace> r = Trace::Load("/nonexistent/really/not/here.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(TraceTest, LoadRejectsGarbage) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fprintf(f, "this is not a trace\n");
  std::fclose(f);
  Result<Trace> r = Trace::Load(path_);
  EXPECT_FALSE(r.ok());
  std::remove(path_.c_str());
}

TEST_F(TraceTest, LoadRejectsTruncatedFile) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fprintf(f, "flower-trace v1 5\n");
  std::fprintf(f, "100 0 1 42 7 0\n");  // only 1 of 5 events
  std::fclose(f);
  Result<Trace> r = Trace::Load(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path_.c_str());
}

TEST_F(TraceTest, EmptyTraceRoundTrips) {
  Trace empty;
  ASSERT_TRUE(empty.Save(path_).ok());
  Result<Trace> r = Trace::Load(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  std::remove(path_.c_str());
}

}  // namespace
}  // namespace flower
