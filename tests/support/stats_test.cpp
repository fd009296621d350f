// Tests for streaming statistics, quantiles, and histograms.

#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.Mean(), 0.0);
  EXPECT_EQ(stats.Variance(), 0.0);
  EXPECT_EQ(stats.StdError(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(3.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.5);
  EXPECT_EQ(stats.Variance(), 0.0);
  EXPECT_EQ(stats.Min(), 3.5);
  EXPECT_EQ(stats.Max(), 3.5);
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  const std::vector<double> values = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  double sum = 0.0;
  for (const double v : values) {
    stats.Add(v);
    sum += v;
  }
  const double mean = sum / values.size();
  double ss = 0.0;
  for (const double v : values) ss += (v - mean) * (v - mean);
  EXPECT_NEAR(stats.Mean(), mean, 1e-12);
  EXPECT_NEAR(stats.Variance(), ss / (values.size() - 1), 1e-12);
  EXPECT_NEAR(stats.StdDev(), std::sqrt(ss / (values.size() - 1)), 1e-12);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats left, right, all;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10.0;
    (i < 40 ? left : right).Add(v);
    all.Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(left.Variance(), all.Variance(), 1e-10);
  EXPECT_EQ(left.Min(), all.Min());
  EXPECT_EQ(left.Max(), all.Max());
}

TEST(RunningStatsTest, MergeWithEmptyIsIdentity) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Add(2.0);
  RunningStats empty;
  stats.Merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_NEAR(stats.Mean(), 1.5, 1e-12);
  empty.Merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.Mean(), 1.5, 1e-12);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffset) {
  RunningStats stats;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) stats.Add(offset + (i % 2));
  EXPECT_NEAR(stats.Mean(), offset + 0.5, 1e-4);
  EXPECT_NEAR(stats.Variance(), 0.25025, 1e-3);  // Bernoulli(0.5) variance
}

TEST(KahanSumTest, ExactForChallengeSequence) {
  KahanSum sum;
  sum.Add(1.0);
  for (int i = 0; i < 10000000; ++i) sum.Add(1e-16);
  EXPECT_NEAR(sum.Total(), 1.0 + 1e-9, 1e-12);
}

TEST(QuantileTest, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, InterpolatesBetweenValues) {
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(QuantileTest, Extremes) {
  const std::vector<double> values = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 5.0);
}

TEST(QuantileTest, RejectsBadInput) {
  EXPECT_THROW(Quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(Quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(Quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(QuantileTest, RejectsNaNLevel) {
  // NaN fails both range comparisons, so a `q < 0 || q > 1` guard let it
  // through to an undefined double-to-index conversion.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Quantile({1.0, 2.0, 3.0}, nan), std::invalid_argument);
  EXPECT_THROW(Quantiles({1.0, 2.0, 3.0}, {nan}), std::invalid_argument);
  EXPECT_THROW(Quantiles({1.0, 2.0, 3.0}, {0.5, nan}),
               std::invalid_argument);
  std::vector<double> values = {1.0, 2.0, 3.0};
  std::vector<double> out;
  EXPECT_THROW(QuantilesInPlace(values, {nan}, &out), std::invalid_argument);
}

TEST(QuantilesTest, MatchesIndividualCalls) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(static_cast<double>(i));
  const auto qs = Quantiles(values, {0.05, 0.5, 0.95});
  EXPECT_DOUBLE_EQ(qs[0], Quantile(values, 0.05));
  EXPECT_DOUBLE_EQ(qs[1], Quantile(values, 0.5));
  EXPECT_DOUBLE_EQ(qs[2], Quantile(values, 0.95));
}

TEST(QuantilesInPlaceTest, MatchesQuantilesAndLeavesBufferSorted) {
  std::vector<double> values = {5.0, 2.0, 9.0, 1.0, 7.0, 3.0};
  const std::vector<double> qs = {0.05, 0.25, 0.5, 0.75, 0.95};
  const std::vector<double> expected = Quantiles(values, qs);
  std::vector<double> out(1, -1.0);  // wrong size on purpose: must resize
  QuantilesInPlace(values, qs, &out);
  EXPECT_EQ(out, expected);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(QuantilesInPlaceTest, ReusableAcrossCalls) {
  // The Monte Carlo reduction reuses one (buffer, out) pair across every
  // checkpoint; a second call must fully overwrite the first's results.
  std::vector<double> values = {1.0, 2.0, 3.0};
  std::vector<double> out;
  QuantilesInPlace(values, {0.0, 1.0}, &out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 3.0}));
  values = {10.0, 30.0, 20.0};
  QuantilesInPlace(values, {0.5}, &out);
  EXPECT_EQ(out, (std::vector<double>{20.0}));
}

TEST(QuantilesInPlaceTest, RejectsBadInput) {
  std::vector<double> empty;
  std::vector<double> out;
  EXPECT_THROW(QuantilesInPlace(empty, {0.5}, &out), std::invalid_argument);
  std::vector<double> values = {1.0};
  EXPECT_THROW(QuantilesInPlace(values, {1.5}, &out),
               std::invalid_argument);
}

TEST(FractionOutsideTest, CountsStrictOutside) {
  const std::vector<double> values = {0.0, 0.5, 1.0, 1.5, 2.0};
  // Interval [0.5, 1.5]: 0.0 and 2.0 are outside.
  EXPECT_DOUBLE_EQ(FractionOutside(values, 0.5, 1.5), 0.4);
}

TEST(FractionOutsideTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(FractionOutside({}, 0.0, 1.0), 0.0);
}

TEST(HistogramTest, BucketsAndEdges) {
  Histogram hist(0.0, 1.0, 4);
  EXPECT_EQ(hist.bins(), 4u);
  EXPECT_DOUBLE_EQ(hist.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.BucketHigh(3), 1.0);
  hist.Add(0.1);
  hist.Add(0.26);
  hist.Add(0.8);
  hist.Add(-1.0);
  hist.Add(2.0);
  EXPECT_EQ(hist.BucketCount(0), 1u);
  EXPECT_EQ(hist.BucketCount(1), 1u);
  EXPECT_EQ(hist.BucketCount(3), 1u);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 1u);
  EXPECT_EQ(hist.total(), 5u);
}

TEST(HistogramTest, UpperEdgeGoesToOverflow) {
  Histogram hist(0.0, 1.0, 2);
  hist.Add(1.0);
  EXPECT_EQ(hist.overflow(), 1u);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramTest, AsciiRenderingContainsCounts) {
  Histogram hist(0.0, 1.0, 2);
  for (int i = 0; i < 5; ++i) hist.Add(0.25);
  hist.Add(0.75);
  const std::string art = hist.ToAscii(10);
  EXPECT_NE(art.find("5"), std::string::npos);
  EXPECT_NE(art.find("#"), std::string::npos);
}

}  // namespace
}  // namespace fairchain
