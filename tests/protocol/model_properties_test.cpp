// Cross-model property suite: invariants every incentive model must
// satisfy, checked over the full protocol zoo with TEST_P.
//
//   * reward conservation: total income after n steps = n * RewardPerStep;
//   * stake-total consistency: Σ stake_i == total_stake at all times;
//   * λ is a probability vector across miners;
//   * determinism: identical seeds give identical games;
//   * withholding never changes income, only the stake schedule;
//   * WinProbability forms a probability distribution.

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "protocol/c_pos.hpp"
#include "protocol/extensions.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "support/rng.hpp"

namespace fairchain::protocol {
namespace {

struct ModelCase {
  std::string label;
  std::function<std::unique_ptr<IncentiveModel>()> make;
};

void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.label; }

class ModelPropertyTest : public ::testing::TestWithParam<ModelCase> {
 protected:
  std::unique_ptr<IncentiveModel> model_ = GetParam().make();
};

TEST_P(ModelPropertyTest, RewardConservation) {
  StakeState state({0.2, 0.3, 0.5});
  RngStream rng(1);
  const std::uint64_t steps = 500;
  model_->RunSteps(state, state.step(), steps, rng);
  EXPECT_NEAR(state.total_income(),
              model_->RewardPerStep() * static_cast<double>(steps),
              1e-9 * static_cast<double>(steps));
}

TEST_P(ModelPropertyTest, StakeTotalsConsistent) {
  StakeState state({0.2, 0.3, 0.5});
  RngStream rng(2);
  for (int step = 0; step < 200; ++step) {
    model_->Step(state, rng);
    state.AdvanceStep();
    double sum = 0.0;
    for (std::size_t i = 0; i < state.miner_count(); ++i) {
      sum += state.stake(i);
    }
    ASSERT_NEAR(sum, state.total_stake(), 1e-9) << "step " << step;
  }
  if (model_->RewardCompounds()) {
    EXPECT_NEAR(state.total_stake(),
                1.0 + state.total_income(), 1e-9);
  } else {
    EXPECT_NEAR(state.total_stake(), 1.0, 1e-12);
  }
}

TEST_P(ModelPropertyTest, LambdaIsProbabilityVector) {
  StakeState state({0.2, 0.3, 0.5});
  RngStream rng(3);
  model_->RunSteps(state, state.step(), 300, rng);
  double total = 0.0;
  for (std::size_t i = 0; i < state.miner_count(); ++i) {
    const double lambda = state.RewardFraction(i);
    EXPECT_GE(lambda, 0.0);
    EXPECT_LE(lambda, 1.0);
    total += lambda;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ModelPropertyTest, Deterministic) {
  StakeState s1({0.2, 0.3, 0.5}), s2({0.2, 0.3, 0.5});
  RngStream r1(4), r2(4);
  model_->RunSteps(s1, s1.step(), 400, r1);
  model_->RunSteps(s2, s2.step(), 400, r2);
  for (std::size_t i = 0; i < s1.miner_count(); ++i) {
    EXPECT_DOUBLE_EQ(s1.income(i), s2.income(i));
    EXPECT_DOUBLE_EQ(s1.stake(i), s2.stake(i));
  }
}

TEST_P(ModelPropertyTest, WithholdingPreservesIncome) {
  // Withholding must not change how much reward is minted, only when it
  // becomes mining power; with period >= horizon the stakes stay initial.
  StakeState state({0.2, 0.3, 0.5}, /*withhold_period=*/100000);
  RngStream rng(5);
  const std::uint64_t steps = 300;
  model_->RunSteps(state, state.step(), steps, rng);
  EXPECT_NEAR(state.total_income(),
              model_->RewardPerStep() * static_cast<double>(steps), 1e-9);
  if (model_->RewardCompounds()) {
    EXPECT_NEAR(state.total_stake(), 1.0, 1e-12);  // nothing released yet
    EXPECT_NEAR(state.PendingTotal(), state.total_income(), 1e-9);
  }
}

TEST_P(ModelPropertyTest, WinProbabilitiesFormDistribution) {
  StakeState state({0.2, 0.3, 0.5});
  RngStream rng(6);
  // Evolve off the initial point.
  model_->RunSteps(state, state.step(), 50, rng);
  double total = 0.0;
  for (std::size_t i = 0; i < state.miner_count(); ++i) {
    const double p = model_->WinProbability(state, i);
    EXPECT_GE(p, -1e-12);
    EXPECT_LE(p, 1.0 + 1e-12);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST_P(ModelPropertyTest, StepNeverTouchesStepCounter) {
  // Models must not call AdvanceStep themselves (driver contract).
  StakeState state({0.2, 0.3, 0.5});
  RngStream rng(7);
  model_->Step(state, rng);
  EXPECT_EQ(state.step(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ModelPropertyTest,
    ::testing::Values(
        ModelCase{"PoW",
                  [] { return std::make_unique<PowModel>(0.01); }},
        ModelCase{"MlPos",
                  [] { return std::make_unique<MlPosModel>(0.01); }},
        ModelCase{"SlPos",
                  [] { return std::make_unique<SlPosModel>(0.01); }},
        ModelCase{"CPos",
                  [] {
                    return std::make_unique<CPosModel>(0.01, 0.1, 32);
                  }},
        ModelCase{"CPosNoInflation",
                  [] {
                    return std::make_unique<CPosModel>(0.01, 0.0, 8);
                  }},
        ModelCase{"FslPos",
                  [] { return std::make_unique<FslPosModel>(0.01); }},
        ModelCase{"Neo", [] { return std::make_unique<NeoModel>(0.01); }},
        ModelCase{"Algorand",
                  [] { return std::make_unique<AlgorandModel>(0.1); }},
        ModelCase{"Eos",
                  [] { return std::make_unique<EosModel>(0.01, 0.1); }}),
    [](const ::testing::TestParamInfo<ModelCase>& param_info) {
      return param_info.param.label;
    });

}  // namespace
}  // namespace fairchain::protocol
