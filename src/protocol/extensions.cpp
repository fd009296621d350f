#include "protocol/extensions.hpp"

namespace fairchain::protocol {

AlgorandModel::AlgorandModel(double v) : v_(v) {
  ValidateReward(v, "AlgorandModel: v");
}

void AlgorandModel::Step(StakeState& state, RngStream& rng) const {
  (void)rng;  // Fully deterministic: inflation only.
  const std::size_t n = state.miner_count();
  const double total = state.total_stake();
  for (std::size_t i = 0; i < n; ++i) {
    const double stake = state.stake(i);  // epoch-start value (see C-PoS)
    if (stake > 0.0) {
      state.CreditStakeUntracked(i, v_ * (stake / total));
    }
  }
}

double AlgorandModel::WinProbability(const StakeState& state,
                                     std::size_t i) const {
  return state.StakeShare(i);
}

EosModel::EosModel(double w, double v) : w_(w), v_(v) {
  ValidateReward(w, "EosModel: w");
  ValidateInflation(v, "EosModel: v");
}

void EosModel::Step(StakeState& state, RngStream& rng) const {
  (void)rng;  // Round-robin proposing: deterministic per round.
  const std::size_t n = state.miner_count();
  const double total = state.total_stake();
  const double constant_part = w_ / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double stake = state.stake(i);  // round-start value
    double credit = constant_part;
    if (v_ > 0.0 && stake > 0.0) credit += v_ * (stake / total);
    state.CreditStakeUntracked(i, credit);
  }
}

double EosModel::WinProbability(const StakeState& state,
                                std::size_t /*i*/) const {
  return 1.0 / static_cast<double>(state.miner_count());
}

}  // namespace fairchain::protocol
