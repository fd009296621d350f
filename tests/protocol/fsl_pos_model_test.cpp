// Tests for FSL-PoS (Section 6.2): the exponential-deadline treatment
// restores proportional win probability.

#include <gtest/gtest.h>

#include "protocol/ml_pos.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

TEST(FslPosModelTest, Metadata) {
  FslPosModel model(0.01);
  EXPECT_EQ(model.name(), "FSL-PoS");
  EXPECT_TRUE(model.RewardCompounds());
}

TEST(FslPosModelTest, RejectsNonPositiveReward) {
  EXPECT_THROW(FslPosModel(0.0), std::invalid_argument);
}

TEST(FslPosModelTest, FirstBlockWinFrequencyIsProportional) {
  // Unlike SL-PoS's 0.125, FSL-PoS gives a = 0.2 exactly.
  FslPosModel model(0.01);
  int wins = 0;
  const RngStream master(1);
  const int reps = 200000;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.Step(state, rng);
    if (state.income(0) > 0.0) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / reps, 0.2, 0.003);
}

TEST(FslPosModelTest, ExpectationalFairnessRestored) {
  FslPosModel model(0.01);
  RunningStats lambda_stats;
  const RngStream master(2);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 500, rng);
    lambda_stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(lambda_stats.Mean(), 0.2, 4.0 * lambda_stats.StdError());
}

TEST(FslPosModelTest, DistributionMatchesMlPos) {
  // FSL-PoS dynamics coincide with ML-PoS (both are proportional-selection
  // Pólya urns): same mean and variance of final lambda.
  const double w = 0.05;
  RunningStats fsl_stats, ml_stats;
  const RngStream master(3);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    {
      FslPosModel model(w);
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunSteps(state, state.step(), 400, rng);
      fsl_stats.Add(state.RewardFraction(0));
    }
    {
      MlPosModel model(w);
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep + 5000000);
      model.RunSteps(state, state.step(), 400, rng);
      ml_stats.Add(state.RewardFraction(0));
    }
  }
  EXPECT_NEAR(fsl_stats.Mean(), ml_stats.Mean(), 0.01);
  EXPECT_NEAR(fsl_stats.Variance(), ml_stats.Variance(),
              0.35 * ml_stats.Variance());
}

TEST(FslPosModelTest, NoMonopolizationDrift) {
  // Mean share stays at a (contrast with SL-PoS's decay to 0).
  FslPosModel model(0.01);
  RunningStats share_stats;
  const RngStream master(4);
  for (std::uint64_t rep = 0; rep < 1000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 3000, rng);
    share_stats.Add(state.StakeShare(0));
  }
  EXPECT_NEAR(share_stats.Mean(), 0.2, 4.0 * share_stats.StdError());
}

TEST(FslPosModelTest, WinProbabilityIsShare) {
  FslPosModel model(0.01);
  StakeState state({0.3, 0.7});
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 0), 0.3);
}

TEST(FslPosModelTest, ZeroStakeMinerNeverWins) {
  FslPosModel model(0.01);
  StakeState state({0.0, 1.0});
  RngStream rng(5);
  model.RunSteps(state, state.step(), 50, rng);
  EXPECT_DOUBLE_EQ(state.income(0), 0.0);
}

}  // namespace
}  // namespace fairchain::protocol
