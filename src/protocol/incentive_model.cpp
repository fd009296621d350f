#include "protocol/incentive_model.hpp"

#include <stdexcept>

namespace fairchain::protocol {

void CheckRunStepsBegin(const StakeState& state, std::uint64_t step_begin) {
  if (state.step() != step_begin) {
    throw std::invalid_argument(
        "IncentiveModel::RunSteps: step_begin does not match state.step()");
  }
}

void IncentiveModel::RunSteps(StakeState& state, std::uint64_t step_begin,
                              std::uint64_t step_count,
                              RngStream& rng) const {
  // Reference implementation and conformance oracle: the batched overrides
  // must be indistinguishable from this loop (state AND RNG sequence).
  CheckRunStepsBegin(state, step_begin);
  for (std::uint64_t s = 0; s < step_count; ++s) {
    Step(state, rng);
    state.AdvanceStep();
  }
}

void IncentiveModel::RunGame(StakeState& state, RngStream& rng,
                             std::uint64_t steps) const {
  RunSteps(state, state.step(), steps, rng);
}

void ValidateReward(double w, const char* what) {
  if (!(w > 0.0)) {
    throw std::invalid_argument(std::string(what) + " must be positive");
  }
}

}  // namespace fairchain::protocol
