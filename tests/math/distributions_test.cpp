// Tests for the random-variate samplers: moments, exact-CDF agreement, and
// determinism.

#include "math/distributions.hpp"

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "math/ks_test.hpp"
#include "math/special.hpp"
#include "support/stats.hpp"

namespace fairchain::math {
namespace {

TEST(ExponentialTest, MeanAndVariance) {
  RngStream rng(1);
  RunningStats stats;
  const double rate = 2.5;
  for (int i = 0; i < 200000; ++i) stats.Add(SampleExponential(rng, rate));
  EXPECT_NEAR(stats.Mean(), 1.0 / rate, 0.01);
  EXPECT_NEAR(stats.Variance(), 1.0 / (rate * rate), 0.02);
}

TEST(ExponentialTest, AlwaysPositive) {
  RngStream rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(SampleExponential(rng, 1.0), 0.0);
  }
}

TEST(ExponentialTest, RejectsNonPositiveRate) {
  RngStream rng(3);
  EXPECT_THROW(SampleExponential(rng, 0.0), std::invalid_argument);
  EXPECT_THROW(SampleExponential(rng, -1.0), std::invalid_argument);
}

TEST(ExponentialTest, MinOfTwoRacesProportionally) {
  // P[Exp(rate_a) < Exp(rate_b)] = rate_a / (rate_a + rate_b) — the PoW
  // block race of Section 2.1.
  RngStream rng(4);
  const double rate_a = 3.0, rate_b = 7.0;
  int a_wins = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (SampleExponential(rng, rate_a) < SampleExponential(rng, rate_b)) {
      ++a_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(a_wins) / n, 0.3, 0.005);
}

TEST(GeometricTest, MeanMatches) {
  RngStream rng(5);
  RunningStats stats;
  const double p = 0.05;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(static_cast<double>(SampleGeometric(rng, p)));
  }
  EXPECT_NEAR(stats.Mean(), 1.0 / p, 0.3);
}

TEST(GeometricTest, SupportStartsAtOne) {
  RngStream rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(SampleGeometric(rng, 0.9), 1u);
  }
}

TEST(GeometricTest, PEqualOneIsAlwaysOne) {
  RngStream rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(SampleGeometric(rng, 1.0), 1u);
}

TEST(GeometricTest, RejectsBadP) {
  RngStream rng(8);
  EXPECT_THROW(SampleGeometric(rng, 0.0), std::invalid_argument);
  EXPECT_THROW(SampleGeometric(rng, 1.5), std::invalid_argument);
}

TEST(GeometricTest, MemorylessTailRatio) {
  // P[T > 2] / P[T > 1] should equal (1-p).
  RngStream rng(9);
  const double p = 0.3;
  int gt1 = 0, gt2 = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = SampleGeometric(rng, p);
    if (t > 1) ++gt1;
    if (t > 2) ++gt2;
  }
  EXPECT_NEAR(static_cast<double>(gt2) / gt1, 1.0 - p, 0.01);
}

TEST(BinomialTest, DegenerateCases) {
  RngStream rng(10);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(SampleBinomial(rng, 100, 1.0), 100u);
  EXPECT_THROW(SampleBinomial(rng, 10, 1.5), std::invalid_argument);
}

TEST(BinomialTest, WithinSupport) {
  RngStream rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(SampleBinomial(rng, 32, 0.2), 32u);
  }
}

// Parameterized moment checks across the sampler's internal regimes:
// inversion from zero (small n or small mean), from the mode (large mean),
// and the p > 1/2 symmetry.
class BinomialMomentTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(BinomialMomentTest, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  RngStream rng(1000 + n);
  RunningStats stats;
  const int reps = 120000;
  for (int i = 0; i < reps; ++i) {
    stats.Add(static_cast<double>(SampleBinomial(rng, n, p)));
  }
  const double mean = static_cast<double>(n) * p;
  const double var = mean * (1.0 - p);
  EXPECT_NEAR(stats.Mean(), mean, 5.0 * std::sqrt(var / reps) + 0.01);
  EXPECT_NEAR(stats.Variance(), var, 0.05 * var + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentTest,
    ::testing::Values(std::make_pair(8u, 0.3),      // small n, from zero
                      std::make_pair(32u, 0.2),     // C-PoS shard regime
                      std::make_pair(64u, 0.5),     // largest small n
                      std::make_pair(200u, 0.02),   // small mean, from zero
                      std::make_pair(500u, 0.4),    // inversion from mode
                      std::make_pair(100u, 0.85))); // symmetry path

// Chi-square fit against the exact pmf over the C-PoS slot-count range:
// one trial, a few, and a whole 32-slot epoch, at shares from tiny to
// past one half (the symmetry path).
class BinomialFitTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BinomialFitTest, DistributionMatchesExactPmf) {
  const auto [n, p] = GetParam();
  RngStream rng(12 + n);
  const int reps = 200000;
  std::vector<std::uint64_t> counts(n + 1, 0);
  std::vector<double> pmf(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) pmf[k] = BinomialPmf(n, k, p);
  for (int i = 0; i < reps; ++i) ++counts[SampleBinomial(rng, n, p)];
  const ChiSquareResult gof = ChiSquareGofTest(counts, pmf, 5.0);
  EXPECT_GE(gof.p_value, 1e-6)
      << "n=" << n << " p=" << p << " chi2=" << gof.statistic
      << " df=" << gof.degrees;
}

INSTANTIATE_TEST_SUITE_P(
    SlotCounts, BinomialFitTest,
    ::testing::Combine(::testing::Values(1u, 5u, 32u),
                       ::testing::Values(0.01, 0.2, 0.5, 0.9)));

TEST(BinomialTest, InversionRegimeSpendsExactlyOneDraw) {
  // Every C-PoS chain link is one SampleBinomial call with n <= 32: it
  // must advance the stream by exactly one 64-bit draw, whichever tail.
  for (const std::uint64_t n : {1u, 5u, 16u, 32u, 64u}) {
    for (const double p : {0.01, 0.2, 0.5, 0.9}) {
      RngStream rng(77 + n);
      RngStream expected = rng;
      SampleBinomial(rng, n, p);
      expected.NextU64();
      EXPECT_EQ(rng.state(), expected.state()) << "n=" << n << " p=" << p;
    }
  }
}

TEST(CategoricalTest, FrequenciesMatchWeights) {
  RngStream rng(13);
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[SampleCategorical(rng, weights)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, weights[i] / 10.0, 0.01);
  }
}

TEST(CategoricalTest, ZeroWeightNeverDrawn) {
  RngStream rng(14);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(SampleCategorical(rng, weights), 1u);
  }
}

TEST(CategoricalTest, RejectsInvalidWeights) {
  RngStream rng(15);
  EXPECT_THROW(SampleCategorical(rng, {-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(SampleCategorical(rng, {0.0, 0.0}), std::invalid_argument);
}

TEST(GammaTest, MomentsMatch) {
  RngStream rng(16);
  for (const double shape : {0.5, 1.0, 2.5, 10.0}) {
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.Add(SampleGamma(rng, shape));
    EXPECT_NEAR(stats.Mean(), shape, 0.05 * shape + 0.02) << shape;
    EXPECT_NEAR(stats.Variance(), shape, 0.1 * shape + 0.05) << shape;
  }
}

TEST(GammaTest, RejectsNonPositiveShape) {
  RngStream rng(17);
  EXPECT_THROW(SampleGamma(rng, 0.0), std::invalid_argument);
}

TEST(BetaSamplerTest, MomentsMatchTheory) {
  RngStream rng(18);
  const double a = 20.0, b = 80.0;  // the ML-PoS limit at a=0.2, w=0.01
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(SampleBeta(rng, a, b));
  EXPECT_NEAR(stats.Mean(), BetaMean(a, b), 0.002);
  EXPECT_NEAR(stats.Variance(), BetaVariance(a, b), 0.0002);
}

TEST(BetaSamplerTest, QuantilesMatchCdf) {
  RngStream rng(19);
  std::vector<double> samples;
  samples.reserve(100000);
  for (int i = 0; i < 100000; ++i) samples.push_back(SampleBeta(rng, 2.0, 5.0));
  const double q25 = Quantile(samples, 0.25);
  EXPECT_NEAR(BetaCdf(2.0, 5.0, q25), 0.25, 0.01);
}

TEST(NormalTest, MomentsAndSymmetry) {
  RngStream rng(20);
  RunningStats stats;
  int positive = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = SampleNormal(rng);
    stats.Add(z);
    if (z > 0) ++positive;
  }
  EXPECT_NEAR(stats.Mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.Variance(), 1.0, 0.02);
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 0.01);
}

TEST(AliasTableTest, MatchesWeights) {
  RngStream rng(21);
  const std::vector<double> weights = {5.0, 1.0, 3.0, 1.0};
  AliasTable table(weights);
  EXPECT_EQ(table.size(), 4u);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, weights[i] / 10.0, 0.01);
  }
}

TEST(AliasTableTest, SingleCategory) {
  RngStream rng(22);
  AliasTable table(std::vector<double>{3.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(AliasTableTest, RejectsInvalid) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{-1.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

TEST(DeterminismTest, SamplersReproducible) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SampleExponential(a, 1.0), SampleExponential(b, 1.0));
    EXPECT_EQ(SampleGeometric(a, 0.1), SampleGeometric(b, 0.1));
    EXPECT_EQ(SampleBinomial(a, 32, 0.2), SampleBinomial(b, 32, 0.2));
    EXPECT_EQ(SampleGamma(a, 2.0), SampleGamma(b, 2.0));
  }
}

}  // namespace
}  // namespace fairchain::math
