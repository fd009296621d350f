#include "protocol/extensions.hpp"

#include <stdexcept>

#include "protocol/batched_steps.hpp"

namespace fairchain::protocol {

NeoModel::NeoModel(double w) : w_(w) { ValidateReward(w, "NeoModel: w"); }

void NeoModel::Step(StakeState& state, RngStream& rng) const {
  // Proposer ∝ base-asset share; the base asset never changes because gas
  // rewards are a separate token (compounds = false keeps stakes fixed),
  // so the O(log m) sampler never needs an update between steps and the
  // branchless static-stake descent applies.
  const std::size_t winner = state.SampleProportionalToStaticStake(rng);
  state.Credit(winner, w_, /*compounds=*/false);
}

void NeoModel::RunSteps(StakeState& state, std::uint64_t step_begin,
                        std::uint64_t step_count, RngStream& rng) const {
  CheckRunStepsBegin(state, step_begin);
  // Gas rewards never become stake, so like PoW the whole batch runs
  // against a frozen sampler tree.
  batched::RunStaticIncomeSteps(state, w_, step_count, rng);
}

double NeoModel::WinProbability(const StakeState& state,
                                std::size_t i) const {
  return state.StakeShare(i);
}

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
      state.Credit(i, v_ * (stake / total), /*compounds=*/true);
    }
  }
}

double AlgorandModel::WinProbability(const StakeState& state,
                                     std::size_t i) const {
  return state.StakeShare(i);
}

EosModel::EosModel(double w, double v) : w_(w), v_(v) {
  ValidateReward(w, "EosModel: w");
  if (v < 0.0) throw std::invalid_argument("EosModel: v must be >= 0");
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
    state.Credit(i, credit, /*compounds=*/true);
  }
}

double EosModel::WinProbability(const StakeState& state,
                                std::size_t /*i*/) const {
  return 1.0 / static_cast<double>(state.miner_count());
}

}  // namespace fairchain::protocol
