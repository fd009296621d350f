// Tests for the Section 6.4 extension models: NEO, Algorand, EOS.

#include "protocol/extensions.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

// --- NEO: PoW-equivalent because rewards are a separate asset ---

TEST(NeoModelTest, Metadata) {
  NeoModel model(0.01);
  EXPECT_EQ(model.name(), "NEO");
  EXPECT_FALSE(model.RewardCompounds());
}

TEST(NeoModelTest, StakeDistributionNeverMoves) {
  NeoModel model(0.01);
  StakeState state({0.2, 0.8});
  RngStream rng(1);
  model.RunSteps(state, state.step(), 2000, rng);
  EXPECT_DOUBLE_EQ(state.StakeShare(0), 0.2);
}

TEST(NeoModelTest, ExpectationalFairness) {
  NeoModel model(0.01);
  RunningStats stats;
  const RngStream master(2);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 200, rng);
    stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(stats.Mean(), 0.2, 4.0 * stats.StdError());
}

TEST(NeoModelTest, LambdaVarianceMatchesBinomial) {
  // Because selection is i.i.d., Var(lambda) = a(1-a)/n, like PoW.
  NeoModel model(1.0);
  RunningStats stats;
  const RngStream master(3);
  const int blocks = 500;
  for (std::uint64_t rep = 0; rep < 4000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), blocks, rng);
    stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(stats.Variance(), 0.2 * 0.8 / blocks,
              0.15 * 0.2 * 0.8 / blocks);
}

// --- Algorand: inflation only, zero reward variance ---

TEST(AlgorandModelTest, Metadata) {
  AlgorandModel model(0.1);
  EXPECT_EQ(model.name(), "Algorand");
  EXPECT_TRUE(model.RewardCompounds());
  EXPECT_THROW(AlgorandModel(0.0), std::invalid_argument);
}

TEST(AlgorandModelTest, LambdaIsExactlyAForEveryOutcome) {
  AlgorandModel model(0.1);
  StakeState state({0.2, 0.8});
  RngStream rng(4);
  model.RunSteps(state, state.step(), 100, rng);
  EXPECT_NEAR(state.RewardFraction(0), 0.2, 1e-12);
  EXPECT_NEAR(state.StakeShare(0), 0.2, 1e-12);
}

TEST(AlgorandModelTest, ZeroVarianceAcrossReplications) {
  AlgorandModel model(0.05);
  RunningStats stats;
  const RngStream master(5);
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    StakeState state({0.3, 0.7});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 50, rng);
    stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(stats.Mean(), 0.3, 1e-12);
  EXPECT_LT(stats.Variance(), 1e-20);
}

TEST(AlgorandModelTest, SharesInvariantUnderCompounding) {
  AlgorandModel model(0.1);
  StakeState state({1.0, 3.0});
  RngStream rng(6);
  model.RunSteps(state, state.step(), 500, rng);
  EXPECT_NEAR(state.StakeShare(0), 0.25, 1e-10);
  EXPECT_GT(state.total_stake(), 4.0);  // inflation minted
}

// --- EOS: constant proposer reward breaks expectational fairness ---

TEST(EosModelTest, Metadata) {
  EosModel model(0.01, 0.1);
  EXPECT_EQ(model.name(), "EOS");
  EXPECT_TRUE(model.RewardCompounds());
  EXPECT_DOUBLE_EQ(model.RewardPerStep(), 0.11);
  EXPECT_THROW(EosModel(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(EosModel(0.01, -0.1), std::invalid_argument);
}

TEST(EosModelTest, ConstantPartEqualizesRewards) {
  // With v = 0: every delegate earns w/m regardless of stake.
  EosModel model(0.1, 0.0);
  StakeState state({0.2, 0.8});
  RngStream rng(7);
  model.RunSteps(state, state.step(), 100, rng);
  EXPECT_NEAR(state.RewardFraction(0), 0.5, 1e-10);
}

TEST(EosModelTest, NotExpectationallyFair) {
  // The poor delegate's lambda exceeds its share; the rich one's falls
  // short (Section 6.4: "neither expectational nor robust fairness").
  EosModel model(0.01, 0.1);
  StakeState state({0.2, 0.8});
  RngStream rng(8);
  model.RunSteps(state, state.step(), 1000, rng);
  EXPECT_GT(state.RewardFraction(0), 0.2 + 0.01);
  EXPECT_LT(state.RewardFraction(1), 0.8 - 0.01);
}

TEST(EosModelTest, DeterministicOutcome) {
  EosModel model(0.01, 0.1);
  StakeState s1({0.2, 0.8}), s2({0.2, 0.8});
  RngStream r1(9), r2(10);  // different seeds: EOS rounds are deterministic
  model.RunSteps(s1, s1.step(), 200, r1);
  model.RunSteps(s2, s2.step(), 200, r2);
  EXPECT_DOUBLE_EQ(s1.income(0), s2.income(0));
}

TEST(EosModelTest, SharesConvergeTowardUniform) {
  // The constant reward dilutes stake differences over time: the poor
  // delegate's stake share grows toward 1/m.
  EosModel model(0.1, 0.0);
  StakeState state({0.2, 0.8});
  RngStream rng(11);
  model.RunSteps(state, state.step(), 5000, rng);
  EXPECT_GT(state.StakeShare(0), 0.4);
  EXPECT_LT(state.StakeShare(0), 0.5 + 1e-9);
}

TEST(EosModelTest, WinProbabilityUniform) {
  EosModel model(0.01, 0.1);
  StakeState state({0.2, 0.3, 0.5});
  EXPECT_NEAR(model.WinProbability(state, 0), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace fairchain::protocol
