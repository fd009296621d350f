#include "protocol/incentive_model.hpp"

#include <cmath>
#include <stdexcept>

namespace fairchain::protocol {

void CheckRunStepsBegin(const StakeState& state, std::uint64_t step_begin) {
  if (state.step() != step_begin) {
    throw std::invalid_argument(
        "IncentiveModel::RunSteps: step_begin does not match state.step()");
  }
}

void IncentiveModel::RunGame(StakeState& state, RngStream& rng,
                             std::uint64_t steps) const {
  RunSteps(state, state.step(), steps, rng);
}

void ValidateReward(double w, const char* what) {
  if (!(w > 0.0) || !std::isfinite(w)) {
    throw std::invalid_argument(std::string(what) +
                                " must be finite and positive");
  }
}

void ValidateInflation(double v, const char* what) {
  if (!(v >= 0.0) || !std::isfinite(v)) {
    throw std::invalid_argument(std::string(what) +
                                " must be finite and >= 0");
  }
}

}  // namespace fairchain::protocol
