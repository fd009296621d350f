// Tests for streaming statistics, quantiles, and histograms.

#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

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
  std::vector<std::size_t> scratch;
  EXPECT_THROW(QuantilesInPlace(values, {nan}, &out, &scratch),
               std::invalid_argument);
}

TEST(QuantilesTest, MatchesIndividualCalls) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(static_cast<double>(i));
  const auto qs = Quantiles(values, {0.05, 0.5, 0.95});
  EXPECT_DOUBLE_EQ(qs[0], Quantile(values, 0.05));
  EXPECT_DOUBLE_EQ(qs[1], Quantile(values, 0.5));
  EXPECT_DOUBLE_EQ(qs[2], Quantile(values, 0.95));
}

// The sort-based reference: Quantile sorts a copy and interpolates.
std::vector<double> SortedReference(const std::vector<double>& values,
                                    const std::vector<double>& qs) {
  std::vector<double> expected;
  for (const double q : qs) expected.push_back(Quantile(values, q));
  return expected;
}

bool SameBits(double a, double b) {
  std::uint64_t a_bits;
  std::uint64_t b_bits;
  std::memcpy(&a_bits, &a, sizeof(a));
  std::memcpy(&b_bits, &b, sizeof(b));
  return a_bits == b_bits;
}

// QuantilesInPlace against the sort-based reference, bit for bit, with the
// buffer left a permutation of its input (the order is unspecified).
void ExpectMatchesSortedReference(const std::vector<double>& values,
                                  const std::vector<double>& qs,
                                  std::vector<std::size_t>* scratch) {
  const std::vector<double> expected = SortedReference(values, qs);
  std::vector<double> buffer = values;
  std::vector<double> out(1, -1.0);  // wrong size on purpose: must resize
  QuantilesInPlace(buffer, qs, &out, scratch);
  ASSERT_EQ(out.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_TRUE(SameBits(out[i], expected[i]))
        << "n " << values.size() << " q " << qs[i] << ": " << out[i]
        << " vs " << expected[i];
  }
  std::vector<double> sorted_buffer = buffer;
  std::vector<double> sorted_values = values;
  std::sort(sorted_buffer.begin(), sorted_buffer.end());
  std::sort(sorted_values.begin(), sorted_values.end());
  EXPECT_EQ(sorted_buffer, sorted_values) << "n " << values.size();
}

const std::vector<double> kCheckpointLevels = {0.05, 0.25, 0.5, 0.75, 0.95};

TEST(QuantilesInPlaceTest, MatchesSortedReferenceAndPermutesBuffer) {
  std::vector<std::size_t> scratch;
  ExpectMatchesSortedReference({5.0, 2.0, 9.0, 1.0, 7.0, 3.0},
                               kCheckpointLevels, &scratch);
  // Small samples, the verify reduction's 1000-value column and a larger
  // odd size; uniform, heavy-tailed and bimodal samples, extreme and
  // repeated levels.
  RngStream rng(20250523);
  // Eight levels are selected; a ninth sends the sample to a full sort.
  const std::vector<double> levels = {0.0, 0.05, 0.25, 0.5,
                                      0.5, 0.75, 0.95, 1.0};
  std::vector<double> nine_levels = levels;
  nine_levels.push_back(0.3);
  for (const std::size_t n : {2u, 10u, 63u, 64u, 65u, 100u, 1000u, 4097u}) {
    std::vector<double> uniform(n);
    std::vector<double> heavy(n);
    std::vector<double> bimodal(n);
    for (std::size_t i = 0; i < n; ++i) {
      uniform[i] = rng.NextDouble();
      heavy[i] = std::pow(1.0 - rng.NextDouble(), -1.0 / 1.16);
      bimodal[i] = (i % 3 == 0 ? 1e6 : 0.0) + rng.NextDouble();
    }
    ExpectMatchesSortedReference(uniform, kCheckpointLevels, &scratch);
    ExpectMatchesSortedReference(heavy, kCheckpointLevels, &scratch);
    ExpectMatchesSortedReference(bimodal, levels, &scratch);
    ExpectMatchesSortedReference(uniform, nine_levels, &scratch);
  }
}

TEST(QuantilesInPlaceTest, TiesConstantAndTwoValueSamples) {
  std::vector<std::size_t> scratch;
  RngStream rng(7);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 1000u}) {
    // Constant (all in one bucket, and no width to bucket by).
    ExpectMatchesSortedReference(std::vector<double>(n, 0.25),
                                 kCheckpointLevels, &scratch);
    ExpectMatchesSortedReference(std::vector<double>(n, 0.0),
                                 kCheckpointLevels, &scratch);
    // Two values, mostly one of them: λ columns at early checkpoints.
    std::vector<double> two(n, 0.0);
    for (std::size_t i = 0; i < n; i += 7) two[i] = 1.0;
    ExpectMatchesSortedReference(two, kCheckpointLevels, &scratch);
    // Ties on a coarse lattice (k / 16), as few-block λ columns are.
    std::vector<double> lattice(n);
    for (double& v : lattice) {
      v = static_cast<double>(rng.NextBounded(17)) / 16.0;
    }
    ExpectMatchesSortedReference(lattice, kCheckpointLevels, &scratch);
    // Infinities (no finite width), a width that overflows, and a
    // subnormal width.
    std::vector<double> infinite = lattice;
    infinite[0] = std::numeric_limits<double>::infinity();
    ExpectMatchesSortedReference(infinite, kCheckpointLevels, &scratch);
    std::vector<double> huge = lattice;
    huge[0] = -std::numeric_limits<double>::max();
    huge[n - 1] = std::numeric_limits<double>::max();
    ExpectMatchesSortedReference(huge, kCheckpointLevels, &scratch);
    std::vector<double> narrow(n, 0.0);
    for (std::size_t i = 0; i < n; i += 3) {
      narrow[i] = std::numeric_limits<double>::denorm_min();
    }
    ExpectMatchesSortedReference(narrow, kCheckpointLevels, &scratch);
  }
}

TEST(QuantilesInPlaceTest, RejectsNaNSample) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out;
  std::vector<std::size_t> scratch;
  for (const std::size_t n : {1u, 10u, 64u, 1000u}) {
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<double> values(n);
      for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
      values[at] = nan;
      EXPECT_THROW(QuantilesInPlace(values, kCheckpointLevels, &out,
                                    &scratch),
                   std::invalid_argument)
          << "n " << n << " NaN at " << at;
    }
  }
  EXPECT_THROW(Quantiles({1.0, nan, 3.0}, {0.5}), std::invalid_argument);
}

TEST(QuantilesInPlaceTest, ReusableAcrossCalls) {
  // The Monte Carlo reduction reuses one (buffer, out, scratch) triple
  // across every checkpoint; a second call must fully overwrite the first's
  // results.
  std::vector<double> values = {1.0, 2.0, 3.0};
  std::vector<double> out;
  std::vector<std::size_t> scratch;
  QuantilesInPlace(values, {0.0, 1.0}, &out, &scratch);
  EXPECT_EQ(out, (std::vector<double>{1.0, 3.0}));
  values = {10.0, 30.0, 20.0};
  QuantilesInPlace(values, {0.5}, &out, &scratch);
  EXPECT_EQ(out, (std::vector<double>{20.0}));
}

TEST(QuantilesInPlaceTest, RejectsBadInput) {
  std::vector<double> empty;
  std::vector<double> out;
  std::vector<std::size_t> scratch;
  EXPECT_THROW(QuantilesInPlace(empty, {0.5}, &out, &scratch),
               std::invalid_argument);
  std::vector<double> values = {1.0};
  EXPECT_THROW(QuantilesInPlace(values, {1.5}, &out, &scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace fairchain
