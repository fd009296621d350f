// Property tests for StakeState's O(log m) proportional sampler: selection
// frequencies must match the closed-form proportional law stake_i / Σ stake
// — the O(m) reference the sampler replaced — through credits, withholding
// releases, and resets.  Chi-square / exact-binomial acceptance via the
// StatisticalJudge helpers and math::ChiSquareGofTest.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "math/ks_test.hpp"
#include "protocol/stake_state.hpp"
#include "support/rng.hpp"
#include "verify/statistical_judge.hpp"

namespace fairchain::protocol {
namespace {

// Deterministic fixed-seed draws: the test is a regression gate, not a
// random one.  With these sample sizes the chi-square has ample power and
// a p-value this small would be a 1-in-10^6 accident under the true law.
constexpr double kAlpha = 1e-6;

std::vector<double> CurrentStakes(const StakeState& state) {
  std::vector<double> stakes(state.miner_count());
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    stakes[i] = state.stake(i);
  }
  return stakes;
}

// Draws `draws` proposers and chi-square-tests the frequencies against the
// exact proportional law of the state's CURRENT stakes.
void ExpectProportionalFrequencies(const StakeState& state,
                                   std::uint64_t draws, std::uint64_t seed) {
  const std::vector<double> stakes = CurrentStakes(state);
  double total = 0.0;
  for (const double stake : stakes) total += stake;
  std::vector<double> expected(stakes.size());
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    expected[i] = stakes[i] / total;
  }
  std::vector<std::uint64_t> counts(stakes.size(), 0);
  RngStream rng(seed);
  for (std::uint64_t n = 0; n < draws; ++n) {
    ++counts[state.SampleProportionalToStake(rng)];
  }
  const math::ChiSquareResult gof =
      math::ChiSquareGofTest(counts, expected, 5.0);
  EXPECT_GE(gof.p_value, kAlpha)
      << "chi2=" << gof.statistic << " df=" << gof.degrees;
}

TEST(StakeSamplerPropertyTest, MatchesProportionalLawOnRaggedStakes) {
  StakeState state({0.05, 0.2, 0.01, 0.34, 0.1, 0.3});
  ExpectProportionalFrequencies(state, 60000, 20210620);
}

TEST(StakeSamplerPropertyTest, MatchesProportionalLawAtTenThousandMiners) {
  // Zipf-ish ragged population at the scale the sampler exists for.
  std::vector<double> stakes(10000);
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    stakes[i] = 1.0 / static_cast<double>(1 + (i % 97));
  }
  StakeState state(stakes);
  ExpectProportionalFrequencies(state, 200000, 7);
}

TEST(StakeSamplerPropertyTest, TracksCompoundingCredits) {
  StakeState state({0.2, 0.8});
  // Heavy reinforcement of the poorer miner: the sampler must follow.
  for (int i = 0; i < 50; ++i) state.Credit(0, 0.05, /*compounds=*/true);
  ExpectProportionalFrequencies(state, 60000, 99);
}

TEST(StakeSamplerPropertyTest, IgnoresNonCompoundingCredits) {
  StakeState state({0.3, 0.7});
  for (int i = 0; i < 100; ++i) state.Credit(0, 1.0, /*compounds=*/false);
  // Stakes unchanged: frequencies still follow the initial 30/70 law.
  ExpectProportionalFrequencies(state, 60000, 11);
}

TEST(StakeSamplerPropertyTest, TracksWithholdingRelease) {
  StakeState state({0.5, 0.5}, /*withhold_period=*/10);
  state.Credit(0, 2.0, /*compounds=*/true);
  // Before the boundary the pending reward must not influence selection.
  ExpectProportionalFrequencies(state, 40000, 13);
  for (int i = 0; i < 10; ++i) state.AdvanceStep();
  ASSERT_DOUBLE_EQ(state.stake(0), 2.5);  // released
  ExpectProportionalFrequencies(state, 40000, 17);
}

TEST(StakeSamplerPropertyTest, ResetRestoresInitialLaw) {
  StakeState state({0.1, 0.9});
  for (int i = 0; i < 30; ++i) state.Credit(1, 0.1, /*compounds=*/true);
  state.Reset();
  ExpectProportionalFrequencies(state, 60000, 23);
}

TEST(StakeSamplerPropertyTest, ZeroStakeMinerNeverWins) {
  StakeState state({0.4, 0.0, 0.6});
  RngStream rng(31);
  for (int n = 0; n < 20000; ++n) {
    EXPECT_NE(state.SampleProportionalToStake(rng), 1u);
  }
}

TEST(StakeSamplerPropertyTest, SingleMinerBinomialExactTest) {
  // Two miners reduce to a Bernoulli stream: the exact binomial two-sided
  // test (the StatisticalJudge's own helper) accepts the win count.
  StakeState state({0.2, 0.8});
  RngStream rng(20210620);
  const std::uint64_t draws = 50000;
  std::uint64_t wins = 0;
  for (std::uint64_t n = 0; n < draws; ++n) {
    if (state.SampleProportionalToStake(rng) == 0) ++wins;
  }
  const double p =
      verify::StatisticalJudge::BinomialTwoSidedP(draws, wins, 0.2);
  EXPECT_GE(p, kAlpha) << "wins=" << wins;
}

}  // namespace
}  // namespace fairchain::protocol
