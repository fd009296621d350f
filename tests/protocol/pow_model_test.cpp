// Tests for the PoW incentive model (Section 2.1 / Theorems 3.2, 4.2).

#include "protocol/pow.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

TEST(PowModelTest, Metadata) {
  PowModel model(0.01);
  EXPECT_EQ(model.name(), "PoW");
  EXPECT_DOUBLE_EQ(model.RewardPerStep(), 0.01);
  EXPECT_FALSE(model.RewardCompounds());
  EXPECT_DOUBLE_EQ(model.block_reward(), 0.01);
}

TEST(PowModelTest, RejectsNonPositiveReward) {
  EXPECT_THROW(PowModel(0.0), std::invalid_argument);
  EXPECT_THROW(PowModel(-1.0), std::invalid_argument);
}

TEST(PowModelTest, StakeNeverChanges) {
  PowModel model(0.01);
  StakeState state({0.2, 0.8});
  RngStream rng(1);
  model.RunSteps(state, state.step(), 1000, rng);
  EXPECT_DOUBLE_EQ(state.stake(0), 0.2);
  EXPECT_DOUBLE_EQ(state.stake(1), 0.8);
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.0);
}

TEST(PowModelTest, EveryBlockCreditsExactlyOneReward) {
  PowModel model(0.01);
  StakeState state({0.2, 0.8});
  RngStream rng(2);
  model.RunSteps(state, state.step(), 500, rng);
  EXPECT_NEAR(state.total_income(), 5.0, 1e-9);
  EXPECT_EQ(state.step(), 500u);
}

TEST(PowModelTest, WinProbabilityIsShare) {
  PowModel model(0.01);
  StakeState state({3.0, 7.0});
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 0), 0.3);
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 1), 0.7);
}

TEST(PowModelTest, EmpiricalWinFrequencyMatchesHashPower) {
  PowModel model(1.0);
  StakeState state({0.2, 0.8});
  RngStream rng(3);
  const int blocks = 200000;
  model.RunSteps(state, state.step(), blocks, rng);
  EXPECT_NEAR(state.RewardFraction(0), 0.2, 0.004);
}

TEST(PowModelTest, BlocksAreIndependent) {
  // Lag-1 correlation of A's win indicator is ~0 (i.i.d. selection).
  PowModel model(1.0);
  StakeState state({0.5, 0.5});
  RngStream rng(4);
  int transitions_same = 0;
  bool prev_win = false;
  const int blocks = 100000;
  double prev_income = 0.0;
  for (int i = 0; i < blocks; ++i) {
    model.Step(state, rng);
    state.AdvanceStep();
    const bool win = state.income(0) > prev_income;
    prev_income = state.income(0);
    if (i > 0 && win == prev_win) ++transitions_same;
    prev_win = win;
  }
  EXPECT_NEAR(static_cast<double>(transitions_same) / (blocks - 1), 0.5,
              0.01);
}

TEST(PowModelTest, ExpectationalFairnessAcrossReplications) {
  // Theorem 3.2: E[lambda] = a for every horizon.
  PowModel model(0.01);
  RunningStats lambda_stats;
  const RngStream master(5);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    StakeState state({0.3, 0.7});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 200, rng);
    lambda_stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(lambda_stats.Mean(), 0.3, 4.0 * lambda_stats.StdError());
}

TEST(PowModelTest, MultiMinerSelection) {
  PowModel model(1.0);
  StakeState state({1.0, 2.0, 3.0, 4.0});
  RngStream rng(6);
  model.RunSteps(state, state.step(), 100000, rng);
  EXPECT_NEAR(state.RewardFraction(0), 0.1, 0.01);
  EXPECT_NEAR(state.RewardFraction(1), 0.2, 0.01);
  EXPECT_NEAR(state.RewardFraction(2), 0.3, 0.01);
  EXPECT_NEAR(state.RewardFraction(3), 0.4, 0.01);
}

TEST(PowModelTest, DeterministicGivenSeed) {
  PowModel model(0.01);
  StakeState s1({0.2, 0.8}), s2({0.2, 0.8});
  RngStream r1(7), r2(7);
  model.RunSteps(s1, s1.step(), 1000, r1);
  model.RunSteps(s2, s2.step(), 1000, r2);
  EXPECT_DOUBLE_EQ(s1.income(0), s2.income(0));
}

}  // namespace
}  // namespace fairchain::protocol
