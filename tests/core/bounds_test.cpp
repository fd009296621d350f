// Tests for the analytical bounds: Theorems 4.2, 4.3, 4.10 and the ML-PoS
// Beta limit.

#include "core/bounds.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "math/special.hpp"

namespace fairchain::core {
namespace {

const FairnessSpec kPaperSpec{0.1, 0.1};

// --- PoW (Theorem 4.2) ---

TEST(PowBoundTest, SufficientBlocksMatchesFormula) {
  // n >= ln(2/δ) / (2 a² ε²) with a = 0.2, ε = δ = 0.1:
  // ln(20) / (2 * 0.04 * 0.01) = 2.9957 / 0.0008 ≈ 3744.7.
  EXPECT_NEAR(PowSufficientBlocks(0.2, kPaperSpec), 3744.66, 0.5);
}

TEST(PowBoundTest, UpperBoundDecreasesInN) {
  double prev = 1.0;
  for (std::uint64_t n : {10u, 100u, 1000u, 10000u}) {
    const double bound = PowUnfairUpperBound(n, 0.2, 0.1);
    EXPECT_LE(bound, prev);
    prev = bound;
  }
  EXPECT_LT(prev, 0.01);
}

TEST(PowBoundTest, BoundIsClampedToOne) {
  EXPECT_DOUBLE_EQ(PowUnfairUpperBound(1, 0.2, 0.1), 1.0);
}

TEST(PowBoundTest, HoeffdingDominatesExactProbability) {
  // 1 - Δ(ε; n, a) <= 2 exp(-2 n a² ε²): the bound is conservative.
  for (std::uint64_t n : {100u, 500u, 2000u, 5000u}) {
    const double exact_unfair = 1.0 - PowExactFairProbability(n, 0.2, 0.1);
    const double hoeffding = PowUnfairUpperBound(n, 0.2, 0.1);
    EXPECT_LE(exact_unfair, hoeffding + 1e-12) << "n=" << n;
  }
}

TEST(PowBoundTest, ExactProbabilityCrossesNinetyPercentNearPaperValue) {
  // The paper observes PoW converging into the fair area around n ≈ 1000
  // for a = 0.2 (Figure 2a / Table 1): the exact binomial computation
  // should cross 90 % in that neighbourhood, far below the Hoeffding
  // sufficient n of ~3745.
  const double at_800 = PowExactFairProbability(800, 0.2, 0.1);
  const double at_1300 = PowExactFairProbability(1300, 0.2, 0.1);
  EXPECT_LT(at_800, 0.9);
  EXPECT_GT(at_1300, 0.9);
}

TEST(PowBoundTest, InfiniteHorizonForZeroEpsilon) {
  EXPECT_TRUE(std::isinf(PowSufficientBlocks(0.2, FairnessSpec{0.0, 0.1})));
}

TEST(PowBoundTest, RejectsBadShare) {
  EXPECT_THROW(PowSufficientBlocks(0.0, kPaperSpec), std::invalid_argument);
  EXPECT_THROW(PowSufficientBlocks(1.0, kPaperSpec), std::invalid_argument);
  EXPECT_THROW(PowUnfairUpperBound(10, 0.2, -0.1), std::invalid_argument);
}

// --- ML-PoS (Theorem 4.3) ---

TEST(MlPosBoundTest, ConditionMatchesPaperNumbers) {
  // Section 5.2: 2 a² ε² / ln(2/δ) ≈ 0.00027 << w = 0.01 at a = 0.2.
  const double rhs = AzumaConditionRhs(0.2, kPaperSpec);
  EXPECT_NEAR(rhs, 0.000267, 1e-5);
  EXPECT_FALSE(MlPosSatisfiesBound(1000000, 0.01, 0.2, kPaperSpec));
}

TEST(MlPosBoundTest, TinyRewardSatisfies) {
  // w = 1e-4 < 0.000267 - 1/n for large n.
  EXPECT_TRUE(MlPosSatisfiesBound(100000, 1e-4, 0.2, kPaperSpec));
}

TEST(MlPosBoundTest, ShortHorizonFailsEvenWithTinyReward) {
  // 1/n term dominates at small n.
  EXPECT_FALSE(MlPosSatisfiesBound(100, 1e-4, 0.2, kPaperSpec));
}

TEST(MlPosBoundTest, MaxRewardMatchesRhs) {
  EXPECT_DOUBLE_EQ(MlPosMaxRewardForFairness(0.2, kPaperSpec),
                   AzumaConditionRhs(0.2, kPaperSpec));
}

TEST(MlPosBoundTest, UpperBoundHasPositiveLimit) {
  // As n -> infinity the Azuma bound tends to 2 exp(-2 a² ε² / w) > 0 —
  // time cannot buy robust fairness at fixed w.  Use ε = 0.5 so the limit
  // is below the clamp at 1:  2 exp(-2 * 0.04 * 0.25 / 0.01) = 2 e^{-2}.
  const double limit = 2.0 * std::exp(-2.0);
  const double at_huge_n = MlPosUnfairUpperBound(100000000, 0.01, 0.2, 0.5);
  EXPECT_NEAR(at_huge_n, limit, 1e-3);
  // At the paper's ε = 0.1 the limit exceeds 1 and clamps: vacuous bound.
  EXPECT_DOUBLE_EQ(MlPosUnfairUpperBound(100000000, 0.01, 0.2, 0.1), 1.0);
}

TEST(MlPosBoundTest, DegeneratesToPowAsWVanishes) {
  // w -> 0: bound -> 2 exp(-2 n a² ε²), the PoW Hoeffding bound.
  const double ml = MlPosUnfairUpperBound(5000, 1e-12, 0.2, 0.1);
  const double pow_bound = PowUnfairUpperBound(5000, 0.2, 0.1);
  EXPECT_NEAR(ml, pow_bound, 1e-9);
}

// --- ML-PoS Beta limit ---

TEST(MlPosLimitTest, ParametersAreShareOverReward) {
  const BetaParams params = MlPosLimitDistribution(0.2, 0.01);
  EXPECT_DOUBLE_EQ(params.alpha, 20.0);
  EXPECT_DOUBLE_EQ(params.beta, 80.0);
}

TEST(MlPosLimitTest, LimitMeanIsA) {
  const BetaParams params = MlPosLimitDistribution(0.2, 0.01);
  EXPECT_NEAR(params.alpha / (params.alpha + params.beta), 0.2, 1e-12);
}

TEST(MlPosLimitTest, UnfairProbabilityViaBetaCdf) {
  const double unfair = MlPosLimitUnfairProbability(0.2, 0.01, 0.1);
  const double direct = 1.0 - (math::BetaCdf(20, 80, 0.22) -
                               math::BetaCdf(20, 80, 0.18));
  EXPECT_NEAR(unfair, direct, 1e-12);
  // At the paper's parameters the limit is distinctly unfair (>> 10 %).
  EXPECT_GT(unfair, 0.3);
}

TEST(MlPosLimitTest, SmallerRewardIsFairer) {
  double prev = 1.0;
  for (const double w : {0.1, 0.01, 0.001, 0.0001}) {
    const double unfair = MlPosLimitUnfairProbability(0.2, w, 0.1);
    EXPECT_LT(unfair, prev) << "w=" << w;
    prev = unfair;
  }
  EXPECT_LT(prev, 0.01);  // w = 1e-4 achieves robust fairness
}

TEST(MlPosLimitTest, RicherMinersFairer) {
  // At fixed w, a larger initial share concentrates the limit more tightly
  // relative to the ±ε a window.
  EXPECT_LT(MlPosLimitUnfairProbability(0.4, 0.001, 0.1),
            MlPosLimitUnfairProbability(0.1, 0.001, 0.1));
}

// --- C-PoS (Theorem 4.10) ---

TEST(CPosBoundTest, LhsMatchesFormula) {
  const double lhs = CPosConditionLhs(1000, 0.01, 0.1, 32);
  const double expected =
      0.01 * 0.01 * (0.001 + 0.11) / (0.11 * 0.11 * 32.0);
  EXPECT_NEAR(lhs, expected, 1e-12);
}

TEST(CPosBoundTest, DegeneratesToMlPosCondition) {
  // v = 0, P = 1: lhs = 1/n + w (the paper's remark after Theorem 4.10).
  const double lhs = CPosConditionLhs(500, 0.01, 0.0, 1);
  EXPECT_NEAR(lhs, 1.0 / 500 + 0.01, 1e-12);
}

TEST(CPosBoundTest, PaperParametersSatisfyCondition) {
  // w = 0.01, v = 0.1, P = 32, a = 0.2: the paper concludes C-PoS achieves
  // (ε, δ)-fairness where ML-PoS does not.
  EXPECT_TRUE(CPosSatisfiesBound(5000, 0.01, 0.1, 32, 0.2, kPaperSpec));
  EXPECT_FALSE(MlPosSatisfiesBound(5000, 0.01, 0.2, kPaperSpec));
}

TEST(CPosBoundTest, MonotoneInVAndP) {
  const double base = CPosConditionLhs(1000, 0.01, 0.1, 32);
  EXPECT_LT(CPosConditionLhs(1000, 0.01, 0.2, 32), base);  // more inflation
  EXPECT_LT(CPosConditionLhs(1000, 0.01, 0.1, 64), base);  // more shards
  EXPECT_GT(CPosConditionLhs(1000, 0.02, 0.1, 32), base);  // more proposer
}

TEST(CPosBoundTest, UpperBoundTighterThanMlPos) {
  const double cpos = CPosUnfairUpperBound(5000, 0.01, 0.1, 32, 0.2, 0.1);
  const double mlpos = MlPosUnfairUpperBound(5000, 0.01, 0.2, 0.1);
  EXPECT_LT(cpos, mlpos / 10.0);
}

TEST(CPosBoundTest, MinInflationClosedForm) {
  const double v_min = CPosMinInflationForFairness(0.01, 32, 0.2, kPaperSpec);
  // Verify the boundary: lhs(v_min) == rhs as n -> infinity.
  const double rhs = AzumaConditionRhs(0.2, kPaperSpec);
  const double lhs_at_min = 0.01 * 0.01 / ((0.01 + v_min) * 32.0);
  EXPECT_NEAR(lhs_at_min, rhs, 1e-12);
  EXPECT_GT(v_min, 0.0);
}

TEST(CPosBoundTest, MinInflationZeroWhenAlreadyFair) {
  // Tiny w with many shards needs no inflation at all.
  EXPECT_DOUBLE_EQ(
      CPosMinInflationForFairness(1e-5, 32, 0.2, kPaperSpec), 0.0);
}

TEST(CPosBoundTest, Rejections) {
  EXPECT_THROW(CPosConditionLhs(0, 0.01, 0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosConditionLhs(10, 0.0, 0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosConditionLhs(10, 0.01, -0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosConditionLhs(10, 0.01, 0.1, 0), std::invalid_argument);
}

// Every bound that takes a reward rejects what the models reject: w must be
// finite and > 0, v finite and >= 0.  A NaN or infinite reward used to
// print nan (or 0 for design's minimum inflation) and exit 0.
TEST(RewardValidationTest, EveryBoundRejectsBadRewards) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double w : {-1.0, 0.0, nan, inf}) {
    EXPECT_THROW(MlPosUnfairUpperBound(1000, w, 0.2, 0.1),
                 std::invalid_argument)
        << w;
    EXPECT_THROW(MlPosSatisfiesBound(1000, w, 0.2, kPaperSpec),
                 std::invalid_argument)
        << w;
    EXPECT_THROW(MlPosLimitDistribution(0.2, w), std::invalid_argument) << w;
    EXPECT_THROW(MlPosLimitUnfairProbability(0.2, w, 0.1),
                 std::invalid_argument)
        << w;
    EXPECT_THROW(CPosConditionLhs(1000, w, 0.1, 32), std::invalid_argument)
        << w;
    EXPECT_THROW(CPosUnfairUpperBound(1000, w, 0.1, 32, 0.2, 0.1),
                 std::invalid_argument)
        << w;
    EXPECT_THROW(CPosMinInflationForFairness(w, 32, 0.2, kPaperSpec),
                 std::invalid_argument)
        << w;
  }
  for (const double v : {-1.0, nan, inf}) {
    EXPECT_THROW(CPosConditionLhs(1000, 0.01, v, 32), std::invalid_argument)
        << v;
    EXPECT_THROW(CPosSatisfiesBound(1000, 0.01, v, 32, 0.2, kPaperSpec),
                 std::invalid_argument)
        << v;
  }
  // v = 0 is a valid inflation reward (C-PoS without inflation).
  EXPECT_NO_THROW(CPosConditionLhs(1000, 0.01, 0.0, 32));
}

// ---------------------------------------------------------------------------
// Property sweep: all bounds are monotone in n across protocols/params.
// ---------------------------------------------------------------------------

class BoundMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(BoundMonotonicityTest, BoundsDecreaseWithHorizon) {
  const double a = GetParam();
  double prev_pow = 2.0, prev_ml = 2.0, prev_cpos = 2.0;
  for (std::uint64_t n = 64; n <= 65536; n *= 4) {
    const double pow_bound = PowUnfairUpperBound(n, a, 0.1);
    const double ml_bound = MlPosUnfairUpperBound(n, 0.01, a, 0.1);
    const double cpos_bound = CPosUnfairUpperBound(n, 0.01, 0.1, 32, a, 0.1);
    EXPECT_LE(pow_bound, prev_pow + 1e-15);
    EXPECT_LE(ml_bound, prev_ml + 1e-15);
    EXPECT_LE(cpos_bound, prev_cpos + 1e-15);
    prev_pow = pow_bound;
    prev_ml = ml_bound;
    prev_cpos = cpos_bound;
  }
}

TEST_P(BoundMonotonicityTest, ProtocolRankingHoldsAtHorizon) {
  // The paper's ranking PoW <= C-PoS <= ML-PoS (in unfair-probability
  // bounds) at the default parameters and a long horizon.
  const double a = GetParam();
  const std::uint64_t n = 100000;
  const double pow_bound = PowUnfairUpperBound(n, a, 0.1);
  const double cpos_bound = CPosUnfairUpperBound(n, 0.01, 0.1, 32, a, 0.1);
  const double ml_bound = MlPosUnfairUpperBound(n, 0.01, a, 0.1);
  EXPECT_LE(pow_bound, cpos_bound + 1e-15);
  EXPECT_LE(cpos_bound, ml_bound + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Shares, BoundMonotonicityTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4));

}  // namespace
}  // namespace fairchain::core
