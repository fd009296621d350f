// Tests for special functions against reference values and identities.

#include "math/special.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace fairchain::math {
namespace {

TEST(LogGammaTest, MatchesFactorials) {
  // Gamma(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-9);
}

TEST(LogGammaTest, HalfIntegerValues) {
  // Gamma(1/2) = sqrt(pi)
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-12);
  // Gamma(3/2) = sqrt(pi)/2
  EXPECT_NEAR(LogGamma(1.5), 0.5 * std::log(M_PI) - std::log(2.0), 1e-12);
}

TEST(LogGammaTest, AgreesWithStdLgamma) {
  for (double x : {0.1, 0.7, 1.3, 2.9, 10.5, 100.0, 1234.5}) {
    EXPECT_NEAR(LogGamma(x), std::lgamma(x), 1e-9 * (1.0 + std::lgamma(x)));
  }
}

TEST(LogGammaTest, RecurrenceHolds) {
  // log Gamma(x+1) = log Gamma(x) + log x.
  for (double x : {0.3, 1.7, 8.2, 55.5}) {
    EXPECT_NEAR(LogGamma(x + 1.0), LogGamma(x) + std::log(x), 1e-10);
  }
}

TEST(LogGammaTest, RejectsNonPositive) {
  EXPECT_THROW(LogGamma(0.0), std::invalid_argument);
  EXPECT_THROW(LogGamma(-1.0), std::invalid_argument);
}

TEST(LogBetaTest, SymmetricAndKnown) {
  EXPECT_NEAR(LogBeta(1.0, 1.0), 0.0, 1e-12);  // B(1,1) = 1
  EXPECT_NEAR(LogBeta(2.0, 3.0), std::log(1.0 / 12.0), 1e-10);
  EXPECT_NEAR(LogBeta(4.5, 2.5), LogBeta(2.5, 4.5), 1e-12);
}

TEST(RegularizedIncompleteBetaTest, Boundaries) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(RegularizedIncompleteBetaTest, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(RegularizedIncompleteBetaTest, SymmetryIdentity) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(3.0, 7.0, x),
                1.0 - RegularizedIncompleteBeta(7.0, 3.0, 1.0 - x), 1e-12);
  }
}

TEST(RegularizedIncompleteBetaTest, KnownValue) {
  // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.5}(2, 5): CDF of Beta(2,5) at .5.
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 2.0, 0.5), 0.5, 1e-12);
  // Beta(2,5) CDF at 0.5 = 1 - (1+5*0.5)(1-0.5)^5 ... use closed form:
  // P(X<=x) for Beta(2,5) = 1-(1-x)^5 (1+5x) ... verified numerically: 0.890625
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 5.0, 0.5), 0.890625, 1e-9);
}

TEST(RegularizedIncompleteBetaTest, IsMonotoneInX) {
  double prev = -1.0;
  for (int i = 0; i <= 50; ++i) {
    const double x = static_cast<double>(i) / 50.0;
    const double value = RegularizedIncompleteBeta(20.0, 80.0, x);
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST(RegularizedIncompleteBetaTest, RejectsBadShapes) {
  EXPECT_THROW(RegularizedIncompleteBeta(0.0, 1.0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(RegularizedIncompleteBeta(1.0, -2.0, 0.5),
               std::invalid_argument);
}

TEST(BetaQuantileTest, InvertsCdf) {
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double x = BetaQuantile(20.0, 80.0, p);
    EXPECT_NEAR(BetaCdf(20.0, 80.0, x), p, 1e-9);
  }
}

TEST(BetaQuantileTest, Boundaries) {
  EXPECT_DOUBLE_EQ(BetaQuantile(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BetaQuantile(2.0, 3.0, 1.0), 1.0);
  EXPECT_THROW(BetaQuantile(2.0, 3.0, -0.1), std::invalid_argument);
}

TEST(BinomialPmfTest, MatchesHandComputation) {
  // Bin(4, 0.5): pmf(2) = 6/16.
  EXPECT_NEAR(BinomialPmf(4, 2, 0.5), 0.375, 1e-12);
  // Bin(10, 0.2): pmf(0) = 0.8^10.
  EXPECT_NEAR(BinomialPmf(10, 0, 0.2), std::pow(0.8, 10), 1e-12);
}

TEST(BinomialPmfTest, DegenerateP) {
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 4, 1.0), 0.0);
}

TEST(BinomialPmfTest, SumsToOne) {
  double total = 0.0;
  for (std::uint64_t k = 0; k <= 30; ++k) total += BinomialPmf(30, k, 0.37);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(BinomialCdfTest, MatchesDirectSummation) {
  for (std::uint64_t k : {0u, 3u, 7u, 15u, 20u}) {
    double direct = 0.0;
    for (std::uint64_t i = 0; i <= k; ++i) direct += BinomialPmf(20, i, 0.3);
    EXPECT_NEAR(BinomialCdf(20, k, 0.3), direct, 1e-10);
  }
}

TEST(BinomialCdfTest, FullRangeIsOne) {
  EXPECT_DOUBLE_EQ(BinomialCdf(10, 10, 0.42), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCdf(10, 12, 0.42), 1.0);
}

TEST(PowDeltaExactTest, GrowsWithN) {
  const double d100 = PowDeltaExact(100, 0.2, 0.1);
  const double d1000 = PowDeltaExact(1000, 0.2, 0.1);
  const double d10000 = PowDeltaExact(10000, 0.2, 0.1);
  EXPECT_LT(d100, d1000);
  EXPECT_LT(d1000, d10000);
  EXPECT_GT(d10000, 0.99);
}

TEST(PowDeltaExactTest, MatchesNormalApproximationAtLargeN) {
  // For n = 10^4, a = 0.2, eps = 0.1: z = n*eps*a / sqrt(n a (1-a)).
  const double n = 10000.0;
  const double z = n * 0.1 * 0.2 / std::sqrt(n * 0.2 * 0.8);
  const double normal_approx = NormalCdf(z) - NormalCdf(-z);
  EXPECT_NEAR(PowDeltaExact(10000, 0.2, 0.1), normal_approx, 0.01);
}

TEST(PowDeltaExactTest, RejectsBadInput) {
  EXPECT_THROW(PowDeltaExact(0, 0.2, 0.1), std::invalid_argument);
  EXPECT_THROW(PowDeltaExact(10, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(PowDeltaExact(10, 1.0, 0.1), std::invalid_argument);
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(NormalCdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(NormalCdf(1.6448536269514722), 0.95, 1e-9);
}

TEST(LogChooseTest, SmallValues) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-10);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogChoose(10, 10), 0.0, 1e-12);
  EXPECT_THROW(LogChoose(3, 4), std::invalid_argument);
}

TEST(LogChooseTest, PascalIdentity) {
  // C(n, k) = C(n-1, k-1) + C(n-1, k), verified in linear space.
  for (std::uint64_t n : {10u, 25u, 60u}) {
    for (std::uint64_t k = 1; k < n; k += 7) {
      const double lhs = std::exp(LogChoose(n, k));
      const double rhs =
          std::exp(LogChoose(n - 1, k - 1)) + std::exp(LogChoose(n - 1, k));
      EXPECT_NEAR(lhs, rhs, 1e-6 * rhs);
    }
  }
}

TEST(RegularizedGammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (const double x : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(RegularizedGammaTest, BranchesAgreeAndBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.5, 0.0), 0.0);
  // The series (x < a + 1) and the continued fraction (x >= a + 1) meet
  // continuously at the switch.
  for (const double a : {0.5, 2.0, 7.5}) {
    const double below = RegularizedGammaP(a, std::nextafter(a + 1.0, 0.0));
    EXPECT_NEAR(below, RegularizedGammaP(a, a + 1.0), 1e-12) << "a=" << a;
  }
  EXPECT_NEAR(RegularizedGammaP(3.0, 1000.0), 1.0, 1e-12);
}

TEST(RegularizedGammaTest, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.0; x <= 20.0; x += 0.25) {
    const double p = RegularizedGammaP(4.0, x);
    EXPECT_GE(p, prev - 1e-14);
    prev = p;
  }
}

TEST(RegularizedGammaTest, RejectsBadInput) {
  EXPECT_THROW(RegularizedGammaP(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RegularizedGammaP(1.0, -1.0), std::invalid_argument);
}

TEST(ChiSquareCdfTest, KnownQuantiles) {
  // Classic critical values: chi2(1) 95th pct = 3.841; chi2(10) = 18.307.
  EXPECT_NEAR(ChiSquareCdf(1.0, 3.841458820694124), 0.95, 1e-9);
  EXPECT_NEAR(ChiSquareCdf(10.0, 18.307038053275146), 0.95, 1e-9);
  EXPECT_NEAR(ChiSquareCdf(2.0, 2.0 * std::log(2.0)), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(ChiSquareCdf(3.0, 0.0), 0.0);
}

TEST(BetaBinomialTest, UniformSpecialCase) {
  // BetaBin(n, 1, 1) is uniform on {0..n}.
  for (std::uint64_t k = 0; k <= 10; ++k) {
    EXPECT_NEAR(BetaBinomialPmf(10, k, 1.0, 1.0), 1.0 / 11.0, 1e-12);
  }
}

TEST(BetaBinomialTest, SumsToOne) {
  double total = 0.0;
  for (std::uint64_t k = 0; k <= 50; ++k) {
    total += BetaBinomialPmf(50, k, 4.0, 16.0);
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(BetaBinomialTest, MeanMatchesTheory) {
  // E[K] = n alpha / (alpha + beta).
  const std::uint64_t n = 40;
  const double alpha = 4.0, beta = 16.0;
  double mean = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    mean += static_cast<double>(k) * BetaBinomialPmf(n, k, alpha, beta);
  }
  EXPECT_NEAR(mean, static_cast<double>(n) * alpha / (alpha + beta), 1e-9);
}

TEST(BetaBinomialTest, ConvergesToBinomialForLargeShapes) {
  // alpha, beta -> infinity at fixed ratio: BetaBin -> Bin(n, a).
  const std::uint64_t n = 20;
  for (std::uint64_t k = 0; k <= n; k += 4) {
    EXPECT_NEAR(BetaBinomialPmf(n, k, 2e6, 8e6), BinomialPmf(n, k, 0.2),
                1e-4);
  }
}

TEST(BetaBinomialTest, RejectsBadInput) {
  EXPECT_THROW(BetaBinomialLogPmf(5, 6, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BetaBinomialLogPmf(5, 2, 0.0, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property sweep: the beta CDF is a valid CDF for many shape pairs.
// ---------------------------------------------------------------------------

class BetaCdfPropertyTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BetaCdfPropertyTest, ValidCdf) {
  const auto [a, b] = GetParam();
  double prev = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    const double cdf = BetaCdf(a, b, x);
    EXPECT_GE(cdf, prev - 1e-12);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
  EXPECT_NEAR(BetaCdf(a, b, 1.0), 1.0, 1e-12);
}

TEST_P(BetaCdfPropertyTest, MedianNearMeanForSymmetricish) {
  const auto [a, b] = GetParam();
  const double median = BetaQuantile(a, b, 0.5);
  // Median lies within the support and within ~1 sd of the mean.
  const double s = a + b;
  const double sd = std::sqrt(a * b / (s * s * (s + 1.0)));
  EXPECT_NEAR(median, a / s, sd + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ShapePairs, BetaCdfPropertyTest,
    ::testing::Values(std::make_pair(0.5, 0.5), std::make_pair(1.0, 3.0),
                      std::make_pair(2.0, 2.0), std::make_pair(20.0, 80.0),
                      std::make_pair(200.0, 800.0),
                      std::make_pair(2000.0, 8000.0)));

}  // namespace
}  // namespace fairchain::math
