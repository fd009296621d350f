// RunSteps ≡ iterated Step: every model's batched hot path against the
// one-step-at-a-time reference.
//
// Every model runs the one SteppedModel::RunSteps loop over its own Step
// (incentive_model.hpp).  These tests pin that the loop is invariant to how
// steps are split into segments: driving it in irregular segments must
// perform exactly the state transitions and RNG draws — same count, same
// order — of repeated { Step; AdvanceStep; }.  They compare EXACTLY (== on
// every double, == on the raw RNG state), not approximately: a single
// extra or reordered draw would silently change every downstream campaign
// golden.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "protocol/incentive_model.hpp"
#include "protocol/model_factory.hpp"
#include "protocol/stake_state.hpp"
#include "support/rng.hpp"

namespace fairchain::protocol {
namespace {

constexpr std::uint64_t kSeed = 20210620;
constexpr std::uint64_t kSteps = 160;

struct Trajectory {
  // λ of miner 0 after every step, 1-based step s at index s - 1.
  std::vector<double> lambdas;
  std::vector<double> final_income;
  std::vector<double> final_stake;
  std::array<std::uint64_t, 4> rng_state;
};

// The reference law: Step + AdvanceStep, one step at a time.
Trajectory ReferenceTrajectory(const IncentiveModel& model,
                               const std::vector<double>& stakes,
                               std::uint64_t withhold) {
  StakeState state(stakes, withhold);
  RngStream rng(kSeed);
  Trajectory trajectory;
  for (std::uint64_t s = 0; s < kSteps; ++s) {
    model.Step(state, rng);
    state.AdvanceStep();
    trajectory.lambdas.push_back(state.RewardFraction(0));
  }
  for (std::size_t i = 0; i < state.miner_count(); ++i) {
    trajectory.final_income.push_back(state.income(i));
    trajectory.final_stake.push_back(state.stake(i));
  }
  trajectory.rng_state = rng.state();
  return trajectory;
}

// Drives RunSteps in deliberately irregular segments (including empty
// ones) and checks λ at every segment boundary plus the full final state
// and the raw RNG state against the reference.
void ExpectConformance(const IncentiveModel& model,
                       const std::vector<double>& stakes,
                       std::uint64_t withhold) {
  const Trajectory reference = ReferenceTrajectory(model, stakes, withhold);

  StakeState state(stakes, withhold);
  RngStream rng(kSeed);
  const std::uint64_t segments[] = {1, 0, 2, 5, 17, 41, 94};
  std::uint64_t done = 0;
  for (const std::uint64_t segment : segments) {
    model.RunSteps(state, done, segment, rng);
    done += segment;
    if (done > 0) {
      EXPECT_EQ(state.RewardFraction(0), reference.lambdas[done - 1])
          << model.name() << ": λ diverged at step " << done;
    }
  }
  ASSERT_EQ(done, kSteps);
  for (std::size_t i = 0; i < state.miner_count(); ++i) {
    EXPECT_EQ(state.income(i), reference.final_income[i])
        << model.name() << ": income of miner " << i;
    EXPECT_EQ(state.stake(i), reference.final_stake[i])
        << model.name() << ": stake of miner " << i;
  }
  // Identical raw generator state == identical draw count AND order.
  EXPECT_EQ(rng.state(), reference.rng_state)
      << model.name() << ": RNG draw sequence diverged";
}

class RunStepsConformanceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RunStepsConformanceTest, MatchesIteratedStepTwoMiners) {
  const auto model = MakeModel(GetParam(), 0.01, 0.1, 4);
  ExpectConformance(*model, {0.2, 0.8}, 0);
}

TEST_P(RunStepsConformanceTest, MatchesIteratedStepMultiMiner) {
  const auto model = MakeModel(GetParam(), 0.02, 0.05, 7);
  ExpectConformance(*model, {0.1, 0.25, 0.3, 0.15, 0.2}, 0);
}

TEST_P(RunStepsConformanceTest, MatchesIteratedStepWithZeroStakeMiner) {
  // SL-PoS skips zero-stake miners' draws entirely; the batched loop must
  // skip the same ones.
  const auto model = MakeModel(GetParam(), 0.01, 0.1, 4);
  ExpectConformance(*model, {0.3, 0.0, 0.7}, 0);
}

TEST_P(RunStepsConformanceTest, MatchesIteratedStepUnderWithholding) {
  // Period 7 does not divide 160, so segments straddle release boundaries.
  const auto model = MakeModel(GetParam(), 0.01, 0.1, 4);
  ExpectConformance(*model, {0.2, 0.8}, 7);
}

TEST_P(RunStepsConformanceTest, RejectsMismatchedStepBegin) {
  const auto model = MakeModel(GetParam(), 0.01, 0.1, 4);
  StakeState state({0.2, 0.8}, 0);
  RngStream rng(kSeed);
  EXPECT_THROW(model->RunSteps(state, 3, 1, rng), std::invalid_argument);
  model->RunSteps(state, 0, 2, rng);
  EXPECT_THROW(model->RunSteps(state, 1, 1, rng), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RunStepsConformanceTest,
                         ::testing::ValuesIn(KnownModelNames()),
                         [](const auto& suite_param) {
                           std::string name = suite_param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace fairchain::protocol
