#include "common/histogram.h"

#include <gtest/gtest.h>

namespace flower {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h(10, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.FractionBelow(100), 0.0);
}

TEST(HistogramTest, MeanMinMax) {
  Histogram h(10, 10);
  h.Add(5);
  h.Add(15);
  h.Add(25);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 15.0);
  EXPECT_DOUBLE_EQ(h.Min(), 5.0);
  EXPECT_DOUBLE_EQ(h.Max(), 25.0);
}

TEST(HistogramTest, FractionBelow) {
  Histogram h(10, 10);
  for (int i = 0; i < 10; ++i) h.Add(i * 10 + 5);  // 5, 15, ..., 95
  EXPECT_NEAR(h.FractionBelow(50), 0.5, 0.051);
  EXPECT_NEAR(h.FractionBelow(100), 1.0, 0.001);
  EXPECT_EQ(h.FractionBelow(0), 0.0);
}

TEST(HistogramTest, OverflowBucket) {
  Histogram h(10, 5);  // covers [0, 50)
  h.Add(1000);
  h.Add(20);
  EXPECT_EQ(h.overflow_count(), 1u);
  EXPECT_EQ(h.count(), 2u);
  // Overflowed values are not "below" any tracked threshold.
  EXPECT_NEAR(h.FractionBelow(50), 0.5, 0.001);
}

TEST(HistogramTest, NegativeClampsToFirstBucket) {
  Histogram h(10, 5);
  h.Add(-5);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_DOUBLE_EQ(h.Min(), -5.0);
}

TEST(HistogramTest, PercentileInterpolation) {
  Histogram h(100, 10);
  for (int i = 0; i < 100; ++i) h.Add(50);  // all in bucket 0
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_EQ(h.Percentile(0), 0.0);
}

TEST(HistogramTest, PercentileOrdering) {
  Histogram h(10, 100);
  for (int i = 0; i < 1000; ++i) h.Add(i % 1000);
  EXPECT_LE(h.Percentile(10), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(100));
}

TEST(HistogramTest, ToStringShowsBuckets) {
  Histogram h(10, 10);
  h.Add(5);
  h.Add(15);
  std::string s = h.ToString();
  EXPECT_NE(s.find("0-10: 1"), std::string::npos);
  EXPECT_NE(s.find("10-20: 1"), std::string::npos);
}

}  // namespace
}  // namespace flower
