// Tests for the binomial sampler: moments, exact-pmf agreement, bit
// agreement with a reference walk, and determinism.

#include "math/distributions.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "math/ks_test.hpp"
#include "math/special.hpp"
#include "support/stats.hpp"

namespace fairchain::math {
namespace {

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

TEST(BinomialTest, RejectsNaNProbabilityBeforeAnyDraw) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::uint64_t n : {0u, 1u, 32u, 64u, 500u}) {
    RngStream rng(78);
    const RngStream before = rng;
    EXPECT_THROW(SampleBinomial(rng, n, nan), std::invalid_argument) << n;
    EXPECT_THROW(SampleBinomial(rng, n, -nan), std::invalid_argument) << n;
    EXPECT_EQ(rng.state(), before.state()) << n;
  }
}

// Reference walk: a run-time division for every ratio and a branchy
// repeated-squaring start value.  The inline walk's quotient table and
// fixed squaring steps must return the same k for every uniform.
double ReferencePow(double base, std::uint64_t exponent) {
  double result = 1.0;
  while (exponent != 0) {
    if ((exponent & 1) != 0) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

// The reference walk's running CDF: cdf[k] for k = 0..n.
std::vector<double> ReferenceCdfs(std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  double pmf = ReferencePow(q, n);
  std::vector<double> cdfs = {pmf};
  for (std::uint64_t k = 1; k <= n; ++k) {
    pmf *= s * (static_cast<double>(n - k + 1) / static_cast<double>(k));
    cdfs.push_back(cdfs.back() + pmf);
  }
  return cdfs;
}

// The reference walk's result: the first k whose CDF reaches u, else n.
std::uint64_t ReferenceInversionFromZero(double u, std::uint64_t n,
                                         double p) {
  const std::vector<double> cdfs = ReferenceCdfs(n, p);
  std::uint64_t k = 0;
  while (u > cdfs[k] && k < n) ++k;
  return k;
}

// The reference sampler for n <= 64: recursion for the upper tail.
std::uint64_t ReferenceSmallBinomial(RngStream& rng, std::uint64_t n,
                                     double p) {
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - ReferenceSmallBinomial(rng, n, 1.0 - p);
  return ReferenceInversionFromZero(rng.NextDouble(), n, p);
}

TEST(BinomialTest, RatioTableHoldsTheRuntimeQuotients) {
  std::size_t at = 0;
  for (std::uint64_t n = 1; n <= detail::kInlineBinomialMaxN; ++n) {
    for (std::uint64_t k = 1; k <= n; ++k, ++at) {
      volatile double numerator = static_cast<double>(n - k + 1);
      volatile double denominator = static_cast<double>(k);
      const double quotient = numerator / denominator;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(detail::kBinomialRatios[at]),
                std::bit_cast<std::uint64_t>(quotient))
          << "n=" << n << " k=" << k;
    }
  }
  EXPECT_EQ(at, detail::kBinomialRatios.size());
}

// Every uniform that lands exactly on a CDF value, and the next double
// above it, is where a one-ulp difference in any pmf term would move the
// result.  Both tails are walked directly, including shares far past 1/2.
TEST(BinomialTest, InlineWalkMatchesDivisionRecurrenceAtCdfBoundaries) {
  const double ps[] = {std::ldexp(1.0, -40), 0.2, 0.5,
                       std::nextafter(0.5, 1.0), 0.8,
                       1.0 - std::ldexp(1.0, -53)};
  for (std::uint64_t n = 1; n <= detail::kInlineBinomialMaxN; ++n) {
    for (const double p : ps) {
      const std::vector<double> cdfs = ReferenceCdfs(n, p);
      for (std::uint64_t k = 0; k <= n; ++k) {
        for (const double u : {cdfs[k], std::nextafter(cdfs[k], 2.0)}) {
          ASSERT_EQ(detail::BinomialInversionFromZero(u, n, p),
                    ReferenceInversionFromZero(u, n, p))
              << "n=" << n << " p=" << p << " k=" << k << " u=" << u;
        }
      }
    }
  }
}

TEST(BinomialTest, InlineSamplerMatchesRecursiveReference) {
  RngStream shares(79);
  for (std::uint64_t n = 0; n <= detail::kInlineBinomialMaxN; ++n) {
    for (const double p : {0.0, 0.2, 0.5, std::nextafter(0.5, 1.0), 0.8,
                           1.0, shares.NextDouble(), shares.NextDouble()}) {
      RngStream actual(1000 + n);
      RngStream expected = actual;
      for (int draw = 0; draw < 64; ++draw) {
        ASSERT_EQ(SampleBinomial(actual, n, p),
                  ReferenceSmallBinomial(expected, n, p))
            << "n=" << n << " p=" << p << " draw " << draw;
      }
      EXPECT_EQ(actual.state(), expected.state()) << "n=" << n << " p=" << p;
    }
  }
}

TEST(DeterminismTest, SamplersReproducible) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SampleBinomial(a, 32, 0.2), SampleBinomial(b, 32, 0.2));
    EXPECT_EQ(SampleBinomial(a, 500, 0.3), SampleBinomial(b, 500, 0.3));
  }
}

}  // namespace
}  // namespace fairchain::math
