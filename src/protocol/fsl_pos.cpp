#include "protocol/fsl_pos.hpp"

#include "protocol/batched_steps.hpp"

namespace fairchain::protocol {

FslPosModel::FslPosModel(double w) : w_(w) {
  ValidateReward(w, "FslPosModel: w");
}

void FslPosModel::Step(StakeState& state, RngStream& rng) const {
  // Exponential-deadline race:  T_i = -ln(U_i) / stake_i.  The minimum of
  // independent exponentials falls on miner i with probability
  // stake_i / total exactly, so the race is sampled as a single categorical
  // draw through the stake sampler — one uniform and O(log m) instead of
  // one exponential per miner.  (The earlier per-miner sampling mirrored
  // the protocol's wire mechanism but had the identical winner law.)
  const std::size_t winner = state.SampleProportionalToStake(rng);
  state.Credit(winner, w_, /*compounds=*/true);
}

void FslPosModel::RunSteps(StakeState& state, std::uint64_t step_begin,
                           std::uint64_t step_count, RngStream& rng) const {
  CheckRunStepsBegin(state, step_begin);
  // Identical batched dynamics to ML-PoS: the exponential race reduces to
  // one categorical draw per block (see Step), and the reward compounds.
  batched::RunCompoundingSteps(state, w_, step_count, rng);
}

double FslPosModel::WinProbability(const StakeState& state,
                                   std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
