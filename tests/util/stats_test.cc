#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace willow::util {
namespace {

TEST(RunningStats, EmptyState) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i < 25 ? a : b).add(x);
    all.add(x);
  }
  a += b;
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a += empty;
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  RunningStats c;
  c += a;
  EXPECT_DOUBLE_EQ(c.mean(), mean);
}

TEST(TimeSeries, RecordAndQuery) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.record(0.0, 1.0);
  ts.record(1.0, 3.0);
  ts.record(2.0, 5.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.at(1), 3.0);
  EXPECT_DOUBLE_EQ(ts.last(), 5.0);
  EXPECT_DOUBLE_EQ(ts.stats().mean(), 3.0);
}

TEST(TimeSeries, LastThrowsOnEmpty) {
  TimeSeries ts;
  EXPECT_THROW((void)ts.last(), std::out_of_range);
}

TEST(TimeSeries, MeanBetweenWindow) {
  TimeSeries ts;
  for (int t = 0; t < 10; ++t) ts.record(t, t * 10.0);
  EXPECT_DOUBLE_EQ(ts.mean_between(2.0, 4.0), 30.0);  // 20,30,40
  EXPECT_DOUBLE_EQ(ts.mean_between(100.0, 200.0), 0.0);
}

TEST(Histogram, RejectsBadArguments) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bucket 0
  h.add(9.9);    // bucket 4
  h.add(-5.0);   // clamps to 0
  h.add(50.0);   // clamps to 4
  h.add(5.0);    // bucket 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_low(2), 4.0);
}

}  // namespace
}  // namespace willow::util
