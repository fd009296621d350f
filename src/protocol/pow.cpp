#include "protocol/pow.hpp"

#include "protocol/batched_steps.hpp"

namespace fairchain::protocol {

PowModel::PowModel(double w) : w_(w) { ValidateReward(w, "PowModel: w"); }

void PowModel::Step(StakeState& state, RngStream& rng) const {
  // Proportional proposer selection over the state's stake sampler:
  // one uniform draw, O(log m).  PoW stakes never change, so the sampler
  // is never updated between steps and the branchless static-stake
  // descent applies (identical winners, ~2x faster on flat trees).
  const std::size_t winner = state.SampleProportionalToStaticStake(rng);
  state.Credit(winner, w_, /*compounds=*/false);
}

void PowModel::RunSteps(StakeState& state, std::uint64_t step_begin,
                        std::uint64_t step_count, RngStream& rng) const {
  CheckRunStepsBegin(state, step_begin);
  // Non-compounding: stakes (and the sampler tree) never change, so the
  // whole batch is sampler descents plus O(1) income credits.
  batched::RunStaticIncomeSteps(state, w_, step_count, rng);
}

double PowModel::WinProbability(const StakeState& state,
                                std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
