// Tests for the Fenwick proportional sampler: prefix sums, point updates,
// selection semantics, and degenerate weights.

#include "support/fenwick.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace fairchain {
namespace {

TEST(FenwickSamplerTest, BuildComputesPrefixSums) {
  FenwickSampler sampler;
  sampler.Build({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(sampler.size(), 5u);
  EXPECT_DOUBLE_EQ(sampler.Total(), 15.0);
  EXPECT_DOUBLE_EQ(sampler.PrefixSum(0), 0.0);
  EXPECT_DOUBLE_EQ(sampler.PrefixSum(1), 1.0);
  EXPECT_DOUBLE_EQ(sampler.PrefixSum(3), 6.0);
  EXPECT_DOUBLE_EQ(sampler.PrefixSum(5), 15.0);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(sampler.Weight(i), static_cast<double>(i + 1));
  }
}

TEST(FenwickSamplerTest, AddUpdatesEveryAffectedPrefix) {
  FenwickSampler sampler;
  sampler.Build({1.0, 1.0, 1.0, 1.0});
  sampler.Add(1, 2.5);
  EXPECT_DOUBLE_EQ(sampler.Total(), 6.5);
  EXPECT_DOUBLE_EQ(sampler.Weight(1), 3.5);
  EXPECT_DOUBLE_EQ(sampler.PrefixSum(2), 4.5);
  EXPECT_DOUBLE_EQ(sampler.PrefixSum(4), 6.5);
  sampler.Add(3, 1.0);
  EXPECT_DOUBLE_EQ(sampler.Weight(3), 2.0);
  EXPECT_DOUBLE_EQ(sampler.Total(), 7.5);
}

TEST(FenwickSamplerTest, SampleMapsUniformToProportionalBins) {
  FenwickSampler sampler;
  sampler.Build({0.2, 0.3, 0.5});
  // u * total lands in [0, 0.2) -> 0, [0.2, 0.5) -> 1, [0.5, 1) -> 2.
  EXPECT_EQ(sampler.Sample(0.0), 0u);
  EXPECT_EQ(sampler.Sample(0.19), 0u);
  EXPECT_EQ(sampler.Sample(0.2), 1u);
  EXPECT_EQ(sampler.Sample(0.49), 1u);
  EXPECT_EQ(sampler.Sample(0.5), 2u);
  EXPECT_EQ(sampler.Sample(0.999999), 2u);
}

TEST(FenwickSamplerTest, ZeroWeightElementsAreNeverSelected) {
  FenwickSampler sampler;
  sampler.Build({0.0, 1.0, 0.0, 1.0, 0.0});
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const std::size_t index = sampler.Sample(u);
    EXPECT_TRUE(index == 1 || index == 3) << "u=" << u;
  }
  // Exactly at the boundary between the two positive weights.
  EXPECT_EQ(sampler.Sample(0.5), 3u);
}

TEST(FenwickSamplerTest, TrailingZeroWeightsClampToLastPositive) {
  FenwickSampler sampler;
  sampler.Build({1.0, 1.0, 0.0, 0.0});
  // The largest representable u < 1: even if rounding overruns every
  // prefix, the fallback walks back to the last positive weight.
  const double u = 1.0 - 1e-16;
  const std::size_t index = sampler.Sample(u);
  EXPECT_EQ(index, 1u);
}

TEST(FenwickSamplerTest, SingleElement) {
  FenwickSampler sampler;
  sampler.Build({0.7});
  EXPECT_EQ(sampler.Sample(0.0), 0u);
  EXPECT_EQ(sampler.Sample(0.999), 0u);
}

TEST(FenwickSamplerTest, NonPowerOfTwoSizesSelectConsistently) {
  // Sizes around powers of two exercise the descent mask's edge cases.
  for (const std::size_t size : {1u, 2u, 3u, 7u, 8u, 9u, 31u, 33u, 100u}) {
    std::vector<double> weights(size, 1.0);
    FenwickSampler sampler;
    sampler.Build(weights);
    for (std::size_t i = 0; i < size; ++i) {
      // The midpoint of element i's bin must select i.
      const double u = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(size);
      EXPECT_EQ(sampler.Sample(u), i) << "size=" << size;
    }
  }
}

TEST(FenwickSamplerTest, RebuildReplacesPreviousState) {
  FenwickSampler sampler;
  sampler.Build({5.0, 5.0});
  sampler.Add(0, 3.0);
  sampler.Build({1.0, 2.0, 3.0});
  EXPECT_EQ(sampler.size(), 3u);
  EXPECT_DOUBLE_EQ(sampler.Total(), 6.0);
  EXPECT_DOUBLE_EQ(sampler.Weight(0), 1.0);
}

// Sample (branchy descent, compounding hot path) and SampleFlat
// (branchless descent, static-stake hot path) are two micro-optimisations
// of ONE selection function: for every input they must pick the same
// winner, or PoW/NEO campaigns would diverge from the shared law.  Swept
// across sizes (incl. the two-element fast path and non-powers of two),
// evolving weights, zero-weight holes, and the u -> 1 boundary.
TEST(FenwickSamplerTest, FlatDescentMatchesBranchyDescentEverywhere) {
  RngStream rng(20210620);
  for (const std::size_t size :
       {1ul, 2ul, 3ul, 5ul, 8ul, 37ul, 100ul, 1000ul}) {
    FenwickSampler sampler;
    std::vector<double> weights(size);
    for (std::size_t i = 0; i < size; ++i) {
      weights[i] = (i % 7 == 3) ? 0.0 : 1.0 / static_cast<double>(i + 1);
    }
    if (size > 1 && weights[0] == 0.0) weights[0] = 1.0;
    sampler.Build(weights);
    for (int draw = 0; draw < 2000; ++draw) {
      const double u = rng.NextDouble();
      ASSERT_EQ(sampler.Sample(u), sampler.SampleFlat(u))
          << "size " << size << " u " << u;
      if (draw % 100 == 0) {
        sampler.Add(sampler.Sample(u), 0.25);  // evolve like a PoS game
      }
    }
    ASSERT_EQ(sampler.Sample(0.0), sampler.SampleFlat(0.0));
    // u arbitrarily close to 1 from below exercises the overran fallback.
    ASSERT_EQ(sampler.Sample(0x1.fffffffffffffp-1),
              sampler.SampleFlat(0x1.fffffffffffffp-1));
  }
}

// --- Boundary clamps (the out-of-range bugfix) --------------------------
// Property: for EVERY tree and EVERY u01 — including 0, the largest double
// below 1, exactly 1.0, and beyond — both descents return an index in
// [0, max(size, 1)).  Before the LastPositive clamp, an empty tree made
// size_ - 1 wrap to SIZE_MAX and read (far) out of bounds.

TEST(FenwickSamplerTest, BoundaryU01NeverEscapesRange) {
  const double kBoundaryU[] = {0.0, 0x1.fffffffffffffp-1, 1.0, 1.5};
  for (const std::size_t size : {1u, 2u, 3u, 5u, 8u, 37u, 100u}) {
    std::vector<double> weights(size, 1.0);
    FenwickSampler sampler;
    sampler.Build(weights);
    for (const double u : kBoundaryU) {
      const std::size_t branchy = sampler.Sample(u);
      const std::size_t flat = sampler.SampleFlat(u);
      EXPECT_LT(branchy, size) << "size " << size << " u " << u;
      EXPECT_LT(flat, size) << "size " << size << " u " << u;
      EXPECT_EQ(branchy, flat) << "size " << size << " u " << u;
    }
    // u01 exactly 1.0 overruns every prefix; the winner must be the last
    // positive-weight element.
    EXPECT_EQ(sampler.Sample(1.0), size - 1);
  }
}

TEST(FenwickSamplerTest, EmptyTreeClampsToZero) {
  FenwickSampler empty;
  empty.Build({});
  for (const double u : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(empty.Sample(u), 0u) << "u " << u;
    EXPECT_EQ(empty.SampleFlat(u), 0u) << "u " << u;
  }
  FenwickSampler never_built;  // default-constructed: size 0, no storage
  EXPECT_EQ(never_built.Sample(0.5), 0u);
  EXPECT_EQ(never_built.SampleFlat(0.5), 0u);
}

TEST(FenwickSamplerTest, AllZeroTreeClampsInRange) {
  for (const std::size_t size : {1u, 2u, 5u, 16u}) {
    FenwickSampler sampler;
    sampler.Build(std::vector<double>(size, 0.0));
    for (const double u : {0.0, 0x1.fffffffffffffp-1, 1.0}) {
      EXPECT_LT(sampler.Sample(u), size) << "size " << size << " u " << u;
      EXPECT_LT(sampler.SampleFlat(u), size)
          << "size " << size << " u " << u;
    }
  }
}

}  // namespace
}  // namespace fairchain
