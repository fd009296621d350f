// Tests for the Fenwick proportional sampler: prefix sums, point updates,
// selection semantics, and degenerate weights.

#include "support/fenwick.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
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

// The four-lane SampleFlat is the static-stake stepping loop's draw: lane
// k must return exactly SampleFlat(u01[k]) for every input, at every lane
// position.  Swept at u = 0, at the largest double below 1, and at +-2
// ulps of every prefix boundary (u = PrefixSum(i) / Total() and its
// neighbours), over trees with zero-weight holes, a trailing zero, the
// two-element fast path and a deep tree.
TEST(FenwickSamplerTest, LaneDescentMatchesFourFlatDescents) {
  RngStream rng(20210620);
  for (const std::size_t size : {1ul, 2ul, 3ul, 5ul, 8ul, 9ul, 1000ul}) {
    std::vector<double> weights(size);
    for (std::size_t i = 0; i < size; ++i) {
      weights[i] = (i % 5 == 2) ? 0.0 : 0.01 + rng.NextDouble();
    }
    if (size > 3) weights[size - 1] = 0.0;
    FenwickSampler sampler;
    sampler.Build(weights);

    std::vector<double> uniforms = {0.0, 0x1.fffffffffffffp-1};
    for (std::size_t i = 0; i <= size; ++i) {
      double u = sampler.PrefixSum(i) / sampler.Total();
      for (int step = 0; step < 2; ++step) u = std::nextafter(u, 0.0);
      for (int step = 0; step < 5; ++step) {
        if (u >= 0.0 && u < 1.0) uniforms.push_back(u);
        u = std::nextafter(u, 2.0);
      }
    }
    // Every window of four consecutive uniforms (wrapping around) puts
    // each uniform in each lane once.
    const std::size_t n = uniforms.size();
    for (std::size_t start = 0; start < n; ++start) {
      FenwickSampler::LaneUniforms lanes;
      for (std::size_t lane = 0; lane < FenwickSampler::kLanes; ++lane) {
        lanes[lane] = uniforms[(start + lane) % n];
      }
      const FenwickSampler::LaneIndices winners = sampler.SampleFlat(lanes);
      for (std::size_t lane = 0; lane < FenwickSampler::kLanes; ++lane) {
        ASSERT_EQ(winners[lane], sampler.SampleFlat(lanes[lane]))
            << "size " << size << " lane " << lane << " u " << lanes[lane];
      }
    }
  }
}

// --- Credited lanes ------------------------------------------------------
// The four-lane SampleFlat with a delta is the compounding stepping loop's
// draw: lane k must return exactly Sample(u01[k]) as read after
// Add(winner, delta) of every earlier lane, in lane order.

constexpr double kTopUniform = 0x1.fffffffffffffp-1;  // 1 - 2^-53

// The law the credited lanes reproduce, on `scratch` (equal to `pristine`
// on entry and on return: RestorePath is bit-exact): Sample then Add, lane
// by lane.
FenwickSampler::LaneIndices SampleThenAdd(
    FenwickSampler& scratch, const FenwickSampler& pristine,
    const FenwickSampler::LaneUniforms& u01, double delta) {
  FenwickSampler::LaneIndices winners;
  for (std::size_t lane = 0; lane < FenwickSampler::kLanes; ++lane) {
    winners[lane] = scratch.Sample(u01[lane]);
    scratch.Add(winners[lane], delta);
  }
  for (const std::size_t winner : winners) {
    scratch.RestorePath(winner, pristine);
  }
  return winners;
}

// u within `offset` ulps of the prefix boundary PrefixSum(i) / Total() of
// `tree` (negative offsets below it), or -1 when that leaves [0, 1).
double BoundaryUniform(const FenwickSampler& tree, std::size_t i,
                       int offset) {
  double u = tree.PrefixSum(i) / tree.Total();
  for (int step = 0; step < offset; ++step) u = std::nextafter(u, 2.0);
  for (int step = 0; step > offset; --step) u = std::nextafter(u, -1.0);
  return u >= 0.0 && u < 1.0 ? u : -1.0;
}

// Sizes 1 to 10^5 (the two-element tree, powers of two and one past them),
// weights with and without zero-weight holes, and a delta of 0, of a few
// ulps of the total, and larger than every leaf.  (a) Every lane sits
// within 2 ulps of every prefix boundary of the tree it reads after the
// earlier lanes' Adds, each lane at each offset; (b) one lane at a time
// takes 1 - 2^-53, which can overrun at rounding and send the later lanes
// through the exact redraw; (c) below 10^5, windows over u = 0, 1 - 2^-53
// and the uncredited tree's boundaries put each of those in each lane.
TEST(FenwickSamplerTest, CreditedLaneDescentMatchesSampleThenAdd) {
  constexpr std::size_t kLanes = FenwickSampler::kLanes;
  RngStream rng(20250523);
  for (const std::size_t size :
       {1ul, 2ul, 3ul, 4ul, 5ul, 8ul, 9ul, 17ul, 1000ul, 100000ul}) {
    for (const bool holes : {false, true}) {
      if (holes && size == 100000) continue;
      std::vector<double> weights(size);
      double heaviest = 0.0;
      for (std::size_t i = 0; i < size; ++i) {
        weights[i] = holes && i % 5 == 2 ? 0.0 : 0.01 + rng.NextDouble();
        heaviest = std::max(heaviest, weights[i]);
      }
      if (holes && size > 3) weights[size - 1] = 0.0;
      FenwickSampler pristine;
      pristine.Build(weights);
      FenwickSampler scratch = pristine;
      for (const double delta :
           {0.0, 0x1p-50 * pristine.Total(), 3.0 * heaviest}) {
        SCOPED_TRACE(::testing::Message() << "size " << size << " holes "
                                          << holes << " delta " << delta);
        // (a) and (b): lane k sits (pass + k) mod 5 - 2 ulps from boundary
        // i of the tree it reads, so across five passes every lane takes
        // every offset; a sixth pass puts lane i mod 4 at the top.
        for (std::size_t i = 0; i <= size; ++i) {
          for (std::size_t pass = 0; pass < 6; ++pass) {
            FenwickSampler::LaneUniforms lanes;
            FenwickSampler::LaneIndices expected;
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
              const int ulps = static_cast<int>((pass + lane) % 5) - 2;
              const double u = BoundaryUniform(scratch, i, ulps);
              const bool top = u < 0.0 || (pass == 5 && lane == i % kLanes);
              lanes[lane] = top ? kTopUniform : u;
              expected[lane] = scratch.Sample(lanes[lane]);
              scratch.Add(expected[lane], delta);
            }
            for (const std::size_t winner : expected) {
              scratch.RestorePath(winner, pristine);
            }
            ASSERT_EQ(pristine.SampleFlat(lanes, delta), expected)
                << "boundary " << i << " pass " << pass;
          }
        }
        if (size == 100000) continue;
        // (c): every window of four consecutive uniforms (wrapping) puts
        // each one in each lane.
        std::vector<double> uniforms = {0.0, kTopUniform};
        for (std::size_t i = 0; i <= size; ++i) {
          for (int offset = -2; offset <= 2; ++offset) {
            const double u = BoundaryUniform(pristine, i, offset);
            if (u >= 0.0) uniforms.push_back(u);
          }
        }
        const std::size_t n = uniforms.size();
        for (std::size_t start = 0; start < n; ++start) {
          FenwickSampler::LaneUniforms lanes;
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            lanes[lane] = uniforms[(start + lane) % n];
          }
          ASSERT_EQ(pristine.SampleFlat(lanes, delta),
                    SampleThenAdd(scratch, pristine, lanes, delta))
              << "window " << start;
        }
      }
    }
  }
}

// A lane whose descent overruns at rounding has the last positive-weight
// element as its winner, but the later lanes corrected the nodes over its
// raw index instead; usually the two agree, because everything between
// them weighs (next to) nothing.  In these trees, weights of an ulp or
// less make the corrected sums round differently, and only drawing the
// later lanes again against the known winners gives the sequential
// winners.  Vectors found by a random search against the lanes without
// that fallback, which return {7, 7, 4, 4} and {6, 5, 6, 6}.
TEST(FenwickSamplerTest, CreditedLanesRedrawAfterRoundingOverrun) {
  struct Case {
    std::vector<double> weights;
    double delta;
    FenwickSampler::LaneUniforms u01;
    FenwickSampler::LaneIndices winners;
  };
  const Case cases[] = {
      {{0x1.51fe61a6177e6p-6, 0x1.b04e9eb65c11ep-3, 0x1.3a3f1de13b509p-2,
        0x1.70ef54646d497p-57, 0x1.c57e80db45164p-1, 0x1.12aef5e54ae32p-1,
        0x1.70ef54646d497p-57, 0x1p-53},
       0x1.f5f85035fab12p-52,
       {kTopUniform, 0x1.ffffffffffffcp-1, 0x1.5b65c4e856587p-1,
        0x1.43fe7a8cc2772p-2},
       {7, 5, 4, 4}},
      {{0x1.89ccccf9492c6p-2, 0x1.4f5f0bb74087fp-2, 0.0, 3.0,
        0x1.30f84ff23019cp-1, 0x1.7958c9e32ba08p-1, 0x1.56e1fc2f8f359p-997,
        0.0},
       0x1.42dce0c5b4129p-51,
       {kTopUniform, 0x1.b53327269d56cp-1, 0x1.ffffffffffffdp-1,
        0x1.ffffffffffffcp-1},
       {6, 5, 5, 5}},
  };
  for (const Case& test_case : cases) {
    FenwickSampler pristine;
    pristine.Build(test_case.weights);
    FenwickSampler scratch = pristine;
    EXPECT_EQ(SampleThenAdd(scratch, pristine, test_case.u01,
                            test_case.delta),
              test_case.winners);
    EXPECT_EQ(pristine.SampleFlat(test_case.u01, test_case.delta),
              test_case.winners);
  }
}

// --- Zero weights at rounding boundaries --------------------------------
// Node sums over different ranges round differently, so a target within a
// few ulps of a boundary can land on a zero-weight element (or run past
// every prefix, where the tree-derived Weight() of a trailing zero reads a
// few ulps instead of 0).  The winner must be the next positive-weight
// element, or the last one when none follows — in both descents and every
// lane.

// Every descent on `sampler` at `u`: the branchy one, the branchless one,
// and each lane of the lock-step one.
std::vector<std::size_t> AllDescents(const FenwickSampler& sampler,
                                     double u) {
  std::vector<std::size_t> winners = {sampler.Sample(u),
                                      sampler.SampleFlat(u)};
  for (std::size_t lane = 0; lane < FenwickSampler::kLanes; ++lane) {
    FenwickSampler::LaneUniforms lanes = {0.0, 0.0, 0.0, 0.0};
    lanes[lane] = u;
    winners.push_back(sampler.SampleFlat(lanes)[lane]);
  }
  return winners;
}

TEST(FenwickSamplerTest, TrailingZeroWeightNeverWinsAtRoundingOverrun) {
  FenwickSampler sampler;
  sampler.Build({0x1.4ee62054ada58p-3, 0x1.10f1c6562008ep-1,
                 0x1.984ad1e4ab8fcp-1, 0x1.e286a60fbdebep-1,
                 0x1.1e253924f11ap-4, 0x1.176ca1c18bfe4p-2,
                 0x1.0ebe8c8b08dbep-1, 0.0});
  // The largest NextDouble overruns every prefix sum, and the trailing
  // zero's tree-derived weight is a few ulps, not 0.
  for (const std::size_t winner :
       AllDescents(sampler, 0x1.fffffffffffffp-1)) {
    EXPECT_EQ(winner, 6u);
  }
}

TEST(FenwickSamplerTest, InteriorZeroWeightNeverWinsAtBoundary) {
  FenwickSampler sampler;
  sampler.Build({0x1.1f811ad7b3e3dp-1, 0x1.fada1609fa817p-1,
                 0x1.83ce67f19893ep-1, 0x1.84be00278ca8ap-1,
                 0x1.a14181f8a464bp-1, 0x1.4263def030732p-2,
                 0x1.0ea2d067bb7ep-4, 0.0, 0x1.af26c92b0b329p-1,
                 0x1.4915f0430992cp-3, 0x1.a33e6b8c2bd5p-3});
  // The target sits within rounding of the boundary shared by elements 6,
  // 7 and 8; the descents land on the zero-weight 7 without the fix.
  for (const std::size_t winner :
       AllDescents(sampler, 0x1.8f023f6ff5fbcp-1)) {
    EXPECT_EQ(winner, 8u);
  }
}

// Crediting a zero-weight element makes it selectable, and restoring its
// path from the pristine tree makes it a zero weight again.
TEST(FenwickSamplerTest, ZeroWeightFlagsFollowAddAndRestorePath) {
  FenwickSampler pristine;
  pristine.Build({1.0, 0.0, 1.0});
  FenwickSampler sampler = pristine;
  EXPECT_EQ(sampler.Sample(0.5), 2u);
  sampler.Add(1, 0.0);
  EXPECT_EQ(sampler.Sample(0.5), 2u);
  sampler.Add(1, 2.0);
  EXPECT_EQ(sampler.Sample(0.5), 1u);
  EXPECT_EQ(sampler.SampleFlat(0.5), 1u);
  sampler.RestorePath(1, pristine);
  EXPECT_EQ(sampler.Sample(0.5), 2u);
  EXPECT_EQ(sampler.SampleFlat(0.5), 2u);

  // A rebuild that leaves no zero weight, then restores back to pristine.
  sampler.Build({1.0, 2.0, 1.0});
  sampler.RestorePath(1, pristine);
  EXPECT_EQ(sampler.Sample(0.5), 2u);
  EXPECT_EQ(sampler.SampleFlat(0.5), 2u);
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

// RestorePath undoes a game's updates element by element: after random
// Adds (and, in the second pass, a Build over the updated weights, as a
// withholding release does), restoring the path of every touched element
// from the pristine tree must give back the pristine tree exactly.
TEST(FenwickSamplerTest, RestoringTouchedPathsMatchesFreshBuildExactly) {
  for (const std::size_t size : {1u, 2u, 3u, 5u, 17u, 1000u}) {
    for (const bool rebuild : {false, true}) {
      RngStream rng(size * 2 + (rebuild ? 1 : 0));
      std::vector<double> weights(size);
      for (std::size_t i = 0; i < size; ++i) {
        weights[i] = i % 4 == 1 ? 0.0 : rng.NextDouble();
      }
      FenwickSampler pristine;
      pristine.Build(weights);
      FenwickSampler sampler = pristine;
      std::vector<double> updated = weights;
      std::vector<bool> touched(size, false);
      const std::size_t adds = 1 + size / 3;
      for (std::size_t a = 0; a < adds; ++a) {
        const std::size_t i = rng.NextBounded(size);
        const double delta = 0.001 + rng.NextDouble();
        sampler.Add(i, delta);
        updated[i] += delta;
        touched[i] = true;
      }
      if (rebuild) sampler.Build(updated);
      for (std::size_t i = 0; i < size; ++i) {
        if (touched[i]) sampler.RestorePath(i, pristine);
      }
      FenwickSampler fresh;
      fresh.Build(weights);
      EXPECT_EQ(sampler.Total(), fresh.Total()) << "size " << size;
      for (std::size_t i = 0; i <= size; ++i) {
        EXPECT_EQ(sampler.PrefixSum(i), fresh.PrefixSum(i))
            << "size " << size << " rebuild " << rebuild << " prefix " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fairchain
