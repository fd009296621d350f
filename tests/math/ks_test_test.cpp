// Tests for the two-sample Kolmogorov-Smirnov and chi-square GOF tests.

#include "math/ks_test.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace fairchain::math {
namespace {

// Samples are drawn by inverse CDF from RngStream::NextDouble.

// Exponential(1): F^{-1}(u) = -ln(1 - u), finite for u in [0, 1).
std::vector<double> ExponentialSample(RngStream& rng, std::size_t n,
                                      double shift) {
  std::vector<double> sample(n);
  for (double& v : sample) v = shift - std::log1p(-rng.NextDouble());
  return sample;
}

// Categorical over `weights`: the first cell whose cumulative weight
// exceeds u times the total.
std::size_t CategoricalDraw(RngStream& rng,
                            const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  const double target = rng.NextDouble() * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;
}

TEST(KolmogorovSurvivalTest, KnownValues) {
  EXPECT_DOUBLE_EQ(KolmogorovSurvival(0.0), 1.0);
  EXPECT_DOUBLE_EQ(KolmogorovSurvival(-1.0), 1.0);
  // Q(1.36) ~ 0.049 (the classic 5% critical value).
  EXPECT_NEAR(KolmogorovSurvival(1.36), 0.049, 0.002);
  // Q(1.63) ~ 0.010.
  EXPECT_NEAR(KolmogorovSurvival(1.63), 0.010, 0.001);
  EXPECT_LT(KolmogorovSurvival(3.0), 1e-6);
}

TEST(KolmogorovSurvivalTest, MonotoneDecreasing) {
  double prev = 1.0;
  for (double x = 0.1; x < 3.0; x += 0.1) {
    const double q = KolmogorovSurvival(x);
    EXPECT_LE(q, prev);
    prev = q;
  }
}

TEST(KsTwoSampleTest, SameDistributionPasses) {
  RngStream rng(4);
  const std::vector<double> a = ExponentialSample(rng, 3000, 0.0);
  const std::vector<double> b = ExponentialSample(rng, 3000, 0.0);
  const KsResult result = KsTestTwoSample(a, b);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(KsTwoSampleTest, ShiftedDistributionFails) {
  RngStream rng(5);
  const std::vector<double> a = ExponentialSample(rng, 3000, 0.0);
  const std::vector<double> b = ExponentialSample(rng, 3000, 0.5);
  const KsResult result = KsTestTwoSample(a, b);
  EXPECT_LT(result.p_value, 1e-6);
  EXPECT_GT(result.statistic, 0.1);
}

TEST(KsTwoSampleTest, IdenticalSamplesZeroStatistic) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const KsResult result = KsTestTwoSample(a, a);
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(KsTwoSampleTest, EmptyThrows) {
  EXPECT_THROW(KsTestTwoSample({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(KsTestTwoSample({1.0}, {}), std::invalid_argument);
}

TEST(ChiSquareGofTest, AcceptsTrueDistribution) {
  RngStream rng(6);
  const std::vector<double> probabilities = {0.1, 0.2, 0.3, 0.4};
  std::vector<std::uint64_t> observed(4, 0);
  for (int i = 0; i < 50000; ++i) {
    ++observed[CategoricalDraw(rng, {1.0, 2.0, 3.0, 4.0})];
  }
  const auto result = ChiSquareGofTest(observed, probabilities);
  EXPECT_GT(result.p_value, 0.001);
  EXPECT_EQ(result.degrees, 3u);
}

TEST(ChiSquareGofTest, RejectsWrongDistribution) {
  RngStream rng(7);
  std::vector<std::uint64_t> observed(4, 0);
  for (int i = 0; i < 50000; ++i) {
    ++observed[CategoricalDraw(rng, {1.0, 1.0, 1.0, 1.0})];  // uniform
  }
  const std::vector<double> claimed = {0.1, 0.2, 0.3, 0.4};
  const auto result = ChiSquareGofTest(observed, claimed);
  EXPECT_LT(result.p_value, 1e-10);
}

TEST(ChiSquareGofTest, PoolsSparseCells) {
  // 10 cells with tiny tail probabilities must be merged, not divided by
  // near-zero expectations.
  std::vector<std::uint64_t> observed = {500, 480, 15, 3, 1, 0, 0, 1, 0, 0};
  std::vector<double> probabilities = {0.5,  0.48, 0.015, 0.003, 0.001,
                                       1e-4, 1e-4, 1e-4,  1e-4,  2e-4};
  const auto result = ChiSquareGofTest(observed, probabilities);
  EXPECT_LT(result.degrees, 9u);  // cells were pooled
  EXPECT_GT(result.p_value, 0.001);
}

TEST(ChiSquareGofTest, Validation) {
  EXPECT_THROW(ChiSquareGofTest({}, {}), std::invalid_argument);
  EXPECT_THROW(ChiSquareGofTest({1}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(ChiSquareGofTest({1, 2}, {-0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(ChiSquareGofTest({0, 0}, {0.5, 0.5}), std::invalid_argument);
}

// --- edge cases: defined behaviour instead of UB ---------------------------

TEST(KsTwoSampleTest, NonFiniteSampleThrowsInsteadOfUb) {
  EXPECT_THROW(KsTestTwoSample({0.1, std::nan("")}, {0.2, 0.3}),
               std::invalid_argument);
  EXPECT_THROW(KsTestTwoSample({0.1, 0.2}, {std::nan("")}),
               std::invalid_argument);
}

TEST(KsTwoSampleTest, TiesAcrossSamplesHaveExactStatistic) {
  // a = {1,1,2}, b = {1,2,2}: after x=1, Fa=2/3 vs Fb=1/3 (D = 1/3); after
  // x=2 both reach 1.  Ties advance both ECDFs before comparing.
  const KsResult result = KsTestTwoSample({1.0, 1.0, 2.0}, {1.0, 2.0, 2.0});
  EXPECT_NEAR(result.statistic, 1.0 / 3.0, 1e-12);
}

TEST(KsTwoSampleTest, SingleObservationEach) {
  const KsResult equal = KsTestTwoSample({1.0}, {1.0});
  EXPECT_DOUBLE_EQ(equal.statistic, 0.0);
  const KsResult disjoint = KsTestTwoSample({1.0}, {2.0});
  EXPECT_DOUBLE_EQ(disjoint.statistic, 1.0);
}

// --- p-value approximation pinned against published K-S tables -------------

TEST(KolmogorovSurvivalTest, PublishedAsymptoticCriticalValues) {
  // Smirnov's asymptotic critical values K_alpha with Q(K_alpha) = alpha
  // (e.g. Massey 1951, Table 1 footnote): alpha = 0.10, 0.05, 0.01, 0.001.
  EXPECT_NEAR(KolmogorovSurvival(1.22385), 0.10, 2e-3);
  EXPECT_NEAR(KolmogorovSurvival(1.35810), 0.05, 2e-3);
  EXPECT_NEAR(KolmogorovSurvival(1.62762), 0.01, 5e-4);
  EXPECT_NEAR(KolmogorovSurvival(1.94947), 0.001, 1e-4);
}

}  // namespace
}  // namespace fairchain::math
