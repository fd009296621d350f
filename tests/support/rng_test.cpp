// Tests for the deterministic RNG stack.

#include "support/rng.hpp"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngStreamTest, Deterministic) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngStreamTest, SeedsProduceDistinctStreams) {
  RngStream a(1);
  RngStream b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngStreamTest, AllZeroStateRejected) {
  EXPECT_THROW(RngStream({0, 0, 0, 0}), std::invalid_argument);
}

TEST(RngStreamTest, NextDoubleInUnitInterval) {
  RngStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStreamTest, NextOpenDoubleNeverZeroOrOne) {
  RngStream rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextOpenDouble();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStreamTest, UniformMomentsRoughlyCorrect) {
  RngStream rng(9);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double second_moment = sum_sq / n;
  EXPECT_NEAR(mean, 0.5, 0.005);          // sd of mean ~ 0.00065
  EXPECT_NEAR(second_moment, 1.0 / 3.0, 0.005);
}

TEST(RngStreamTest, NextBoundedInRangeAndRoughlyUniform) {
  RngStream rng(10);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<int>(v)];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, n / 10, 600);  // ~6 sigma of Binomial(1e5, 0.1)
  }
}

TEST(RngStreamTest, NextBoundedZeroThrows) {
  RngStream rng(11);
  EXPECT_THROW(rng.NextBounded(0), std::invalid_argument);
}

TEST(RngStreamTest, NextBoundedOneAlwaysZero) {
  RngStream rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngStreamTest, BernoulliEdgeCases) {
  RngStream rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngStreamTest, BernoulliFrequencyMatchesP) {
  RngStream rng(14);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngStreamTest, SplitStreamsAreIndependentAndReproducible) {
  const RngStream parent(99);
  RngStream child_a = parent.Split(0);
  RngStream child_a2 = parent.Split(0);
  RngStream child_b = parent.Split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = child_a.NextU64();
    EXPECT_EQ(va, child_a2.NextU64());  // reproducible
    if (va == child_b.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);  // distinct
}

TEST(RngStreamTest, ManySplitsAreDistinct) {
  const RngStream parent(123);
  std::set<std::uint64_t> first_outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    first_outputs.insert(parent.Split(i).NextU64());
  }
  EXPECT_EQ(first_outputs.size(), 1000u);
}

TEST(RngStreamTest, SplitDoesNotAdvanceParent) {
  RngStream parent(55);
  RngStream reference(55);
  (void)parent.Split(7);
  EXPECT_EQ(parent.NextU64(), reference.NextU64());
}

// Serial correlation sanity: lag-1 autocorrelation of uniforms ~ 0.
TEST(RngStreamTest, LowSerialCorrelation) {
  RngStream rng(16);
  const int n = 100000;
  double prev = rng.NextDouble();
  double sum_xy = 0.0, sum_x = 0.0, sum_x2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double cur = rng.NextDouble();
    sum_xy += prev * cur;
    sum_x += prev;
    sum_x2 += prev * prev;
    prev = cur;
  }
  const double mean = sum_x / n;
  const double var = sum_x2 / n - mean * mean;
  const double cov = sum_xy / n - mean * mean;
  EXPECT_LT(std::fabs(cov / var), 0.02);
}

}  // namespace
}  // namespace fairchain
