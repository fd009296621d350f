// Tests for SL-PoS (Section 2.3): non-proportional win probability
// (Theorem 3.4) and monopolization (Theorem 4.9).

#include "protocol/sl_pos.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "protocol/win_probability.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

TEST(SlPosModelTest, Metadata) {
  SlPosModel model(0.01);
  EXPECT_EQ(model.name(), "SL-PoS");
  EXPECT_TRUE(model.RewardCompounds());
}

TEST(SlPosModelTest, RejectsNonPositiveReward) {
  EXPECT_THROW(SlPosModel(-0.01), std::invalid_argument);
}

TEST(SlPosModelTest, FirstBlockWinFrequencyMatchesClosedForm) {
  // a = 0.2: Pr[A wins first block] = 0.2 / (2 * 0.8) = 0.125.
  SlPosModel model(0.01);
  int wins = 0;
  const RngStream master(1);
  const int reps = 200000;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.Step(state, rng);
    if (state.income(0) > 0.0) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / reps, 0.125, 0.003);
}

TEST(SlPosModelTest, WinProbabilityUsesClosedFormTwoMiner) {
  SlPosModel model(0.01);
  StakeState state({0.2, 0.8});
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 0), 0.125);
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 1), 0.875);
}

TEST(SlPosModelTest, WinProbabilityMultiMinerMatchesLemma) {
  SlPosModel model(0.01);
  StakeState state({0.1, 0.3, 0.6});
  const std::vector<double> stakes = {0.1, 0.3, 0.6};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(model.WinProbability(state, i),
                SlPosMultiMinerWinProbability(stakes, i), 1e-12);
  }
}

TEST(SlPosModelTest, ExpectationalUnfairness) {
  // Theorem 3.4: E[lambda] < a for the poorer miner.
  SlPosModel model(0.01);
  RunningStats lambda_stats;
  const RngStream master(2);
  for (std::uint64_t rep = 0; rep < 2000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 500, rng);
    lambda_stats.Add(state.RewardFraction(0));
  }
  EXPECT_LT(lambda_stats.Mean() + 4.0 * lambda_stats.StdError(), 0.2);
}

TEST(SlPosModelTest, PoorMinerShareDecaysOverTime) {
  SlPosModel model(0.01);
  RunningStats at_500, at_5000;
  const RngStream master(3);
  for (std::uint64_t rep = 0; rep < 500; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 500, rng);
    at_500.Add(state.RewardFraction(0));
    model.RunSteps(state, state.step(), 4500, rng);
    at_5000.Add(state.RewardFraction(0));
  }
  EXPECT_LT(at_5000.Mean(), at_500.Mean());
}

TEST(SlPosModelTest, MonopolizationAtLongHorizon) {
  // Theorem 4.9: shares converge to {0, 1}.  Convergence is power-law slow
  // (the surviving share decays like n^(-1/2) once the step size behaves
  // like 1/n), so use a long horizon and a 10% extremity band.
  SlPosModel model(0.1);
  const RngStream master(4);
  int extreme = 0;
  const int reps = 250;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    StakeState state({0.5, 0.5});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 50000, rng);
    const double share = state.StakeShare(0);
    if (share < 0.1 || share > 0.9) ++extreme;
  }
  EXPECT_GT(static_cast<double>(extreme) / reps, 0.9);
}

TEST(SlPosModelTest, EqualStartMonopolizesFiftyFifty) {
  // From Z_0 = 1/2 the game tips to either side with equal probability,
  // and (Lemma 4.8) the unstable point 1/2 itself attracts no mass.
  SlPosModel model(0.05);
  const RngStream master(5);
  int a_side = 0, near_half = 0;
  const int reps = 400;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    StakeState state({0.5, 0.5});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 20000, rng);
    const double share = state.StakeShare(0);
    if (share > 0.5) ++a_side;
    if (std::fabs(share - 0.5) < 0.05) ++near_half;
  }
  EXPECT_NEAR(static_cast<double>(a_side) / reps, 0.5, 0.125);
  EXPECT_LE(near_half, 4);
}

TEST(SlPosModelTest, BiggestMinerWinsMonopolyMostOften) {
  // With a = 0.7 most games monopolise toward the rich miner; a minority
  // tip the other way early (the unstable point 1/2 is crossed by noise).
  SlPosModel model(0.05);
  const RngStream master(6);
  int rich_side = 0, extreme = 0;
  const int reps = 200;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    StakeState state({0.7, 0.3});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 20000, rng);
    const double share = state.StakeShare(0);
    if (share > 0.9) ++rich_side;
    if (share > 0.9 || share < 0.1) ++extreme;
  }
  EXPECT_GT(static_cast<double>(extreme) / reps, 0.8);
  EXPECT_GT(static_cast<double>(rich_side) / reps, 0.6);
}

TEST(SlPosModelTest, ZeroStakeMinerStaysAtZero) {
  SlPosModel model(0.01);
  StakeState state({0.0, 1.0});
  RngStream rng(7);
  model.RunSteps(state, state.step(), 100, rng);
  EXPECT_DOUBLE_EQ(state.income(0), 0.0);
  EXPECT_DOUBLE_EQ(state.RewardFraction(1), 1.0);
}

}  // namespace
}  // namespace fairchain::protocol
