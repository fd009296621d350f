// Tests for ML-PoS (Section 2.2): Pólya-urn dynamics, expectational
// fairness (Theorem 3.3), and the Beta limit (Section 4.3).

#include "protocol/ml_pos.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "math/special.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

TEST(MlPosModelTest, Metadata) {
  MlPosModel model(0.01);
  EXPECT_EQ(model.name(), "ML-PoS");
  EXPECT_TRUE(model.RewardCompounds());
  EXPECT_DOUBLE_EQ(model.RewardPerStep(), 0.01);
}

TEST(MlPosModelTest, RejectsNonPositiveReward) {
  EXPECT_THROW(MlPosModel(0.0), std::invalid_argument);
}

TEST(MlPosModelTest, RewardCompoundsIntoStake) {
  MlPosModel model(0.01);
  StakeState state({0.2, 0.8});
  RngStream rng(1);
  model.Step(state, rng);
  state.AdvanceStep();
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.01);
  EXPECT_DOUBLE_EQ(state.total_income(), 0.01);
}

TEST(MlPosModelTest, TotalStakeGrowsLinearly) {
  MlPosModel model(0.01);
  StakeState state({0.2, 0.8});
  RngStream rng(2);
  model.RunSteps(state, state.step(), 500, rng);
  EXPECT_NEAR(state.total_stake(), 1.0 + 0.01 * 500, 1e-9);
}

TEST(MlPosModelTest, MartingaleProperty) {
  // E[S_{i+1} | S_i] = S_i (1 + w / total): the conditional share is a
  // martingale.  Check the one-step conditional mean empirically from a
  // fixed state.
  MlPosModel model(0.05);
  RunningStats next_stake;
  const RngStream master(3);
  for (std::uint64_t rep = 0; rep < 200000; ++rep) {
    StakeState state({0.3, 0.7});
    RngStream rng = master.Split(rep);
    model.Step(state, rng);
    next_stake.Add(state.stake(0));
  }
  const double expected = 0.3 + 0.05 * 0.3;  // S + w * share
  EXPECT_NEAR(next_stake.Mean(), expected, 4.0 * next_stake.StdError());
}

TEST(MlPosModelTest, ExpectationalFairness) {
  // Theorem 3.3: E[lambda] = a despite compounding.
  MlPosModel model(0.01);
  RunningStats lambda_stats;
  const RngStream master(4);
  for (std::uint64_t rep = 0; rep < 4000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 300, rng);
    lambda_stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(lambda_stats.Mean(), 0.2, 4.0 * lambda_stats.StdError());
}

TEST(MlPosModelTest, LambdaVarianceMuchLargerThanPow) {
  // The compounding feedback inflates the variance of lambda relative to
  // i.i.d. PoW sampling at the same horizon.
  const int blocks = 2000;
  const double w = 0.01;
  RunningStats ml_stats;
  const RngStream master(5);
  for (std::uint64_t rep = 0; rep < 2000; ++rep) {
    MlPosModel model(w);
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), blocks, rng);
    ml_stats.Add(state.RewardFraction(0));
  }
  const double pow_variance = 0.2 * 0.8 / blocks;  // Bin(n,a)/n variance
  EXPECT_GT(ml_stats.Variance(), 10.0 * pow_variance);
}

TEST(MlPosModelTest, FinalLambdaMatchesBetaLimitQuantiles) {
  // lambda_n -> Beta(a/w, b/w).  With a=0.2, w=0.1: Beta(2, 8).
  const double w = 0.1;
  std::vector<double> lambdas;
  const RngStream master(6);
  for (std::uint64_t rep = 0; rep < 6000; ++rep) {
    MlPosModel model(w);
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 3000, rng);
    lambdas.push_back(state.RewardFraction(0));
  }
  std::sort(lambdas.begin(), lambdas.end());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double empirical =
        lambdas[static_cast<std::size_t>(q * (lambdas.size() - 1))];
    const double theoretical = math::BetaQuantile(2.0, 8.0, q);
    EXPECT_NEAR(empirical, theoretical, 0.02) << "quantile " << q;
  }
}

TEST(MlPosModelTest, WinProbabilityTracksCurrentStake) {
  MlPosModel model(0.5);
  StakeState state({0.5, 0.5});
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 0), 0.5);
  state.Credit(0, 0.5, true);  // now 1.0 vs 0.5
  EXPECT_NEAR(model.WinProbability(state, 0), 2.0 / 3.0, 1e-12);
}

TEST(MlPosModelTest, LuckCompoundsDirectionally) {
  // Conditioned on winning the first k blocks, the expected share rises —
  // the "luck feedback" that PoW lacks.
  MlPosModel model(0.1);
  StakeState state({0.2, 0.8});
  // Force miner 0 to win 10 blocks by direct credit (the dynamics that
  // winning would produce).
  for (int i = 0; i < 10; ++i) state.Credit(0, 0.1, true);
  EXPECT_GT(state.StakeShare(0), 0.2);
  EXPECT_NEAR(state.StakeShare(0), 1.2 / 2.0, 1e-12);
}

TEST(MlPosModelTest, ThreeMinerExpectationalFairness) {
  MlPosModel model(0.02);
  RunningStats m0, m2;
  const RngStream master(7);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    StakeState state({0.2, 0.3, 0.5});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 300, rng);
    m0.Add(state.RewardFraction(0));
    m2.Add(state.RewardFraction(2));
  }
  EXPECT_NEAR(m0.Mean(), 0.2, 4.0 * m0.StdError());
  EXPECT_NEAR(m2.Mean(), 0.5, 4.0 * m2.StdError());
}

}  // namespace
}  // namespace fairchain::protocol
