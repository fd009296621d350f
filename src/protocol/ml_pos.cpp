#include "protocol/ml_pos.hpp"

#include "protocol/batched_steps.hpp"

namespace fairchain::protocol {

MlPosModel::MlPosModel(double w) : w_(w) { ValidateReward(w, "MlPosModel: w"); }

void MlPosModel::Step(StakeState& state, RngStream& rng) const {
  // Proposer selection proportional to current effective stake: one O(log m)
  // sampler descent, then an O(log m) reinforcement of the winner — the
  // Pólya-urn step that used to cost a full O(m) cumulative scan.
  const std::size_t winner = state.SampleProportionalToStake(rng);
  state.Credit(winner, w_, /*compounds=*/true);
}

void MlPosModel::RunSteps(StakeState& state, std::uint64_t step_begin,
                          std::uint64_t step_count, RngStream& rng) const {
  CheckRunStepsBegin(state, step_begin);
  batched::RunCompoundingSteps(state, w_, step_count, rng);
}

double MlPosModel::WinProbability(const StakeState& state,
                                  std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
