#include "protocol/sl_pos.hpp"

#include <vector>

#include "protocol/win_probability.hpp"

namespace fairchain::protocol {

SlPosModel::SlPosModel(double w) : w_(w) { ValidateReward(w, "SlPosModel: w"); }

double SlPosModel::WinProbability(const StakeState& state,
                                  std::size_t i) const {
  const std::size_t n = state.miner_count();
  if (n == 2) {
    const std::size_t other = i == 0 ? 1 : 0;
    return SlPosTwoMinerWinProbability(state.stake(i), state.stake(other));
  }
  // SL-PoS keeps its integral form (Lemma 6.1) — the lottery is genuinely
  // non-proportional — but the full probability vector is cached in the
  // state and recomputed only when stakes actually change, so sweeping all
  // miners costs one quadrature pass instead of one per query.
  StakeState::WinProbabilityCache& cache = state.win_probability_cache();
  if (cache.version != state.stake_version() ||
      cache.probabilities.size() != n) {
    std::vector<double> stakes(n);
    for (std::size_t j = 0; j < n; ++j) stakes[j] = state.stake(j);
    cache.probabilities = SlPosWinProbabilities(stakes);
    cache.version = state.stake_version();
  }
  return cache.probabilities[i];
}

}  // namespace fairchain::protocol
