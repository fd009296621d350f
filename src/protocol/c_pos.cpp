#include "protocol/c_pos.hpp"

#include <stdexcept>
#include <vector>

namespace fairchain::protocol {

void ValidateShardCount(std::uint64_t shards, const std::string& prefix) {
  if (shards >= 1 && shards <= kMaxShards) return;
  throw std::invalid_argument(
      prefix + "shards=" + std::to_string(shards) + " is outside [1, " +
      std::to_string(kMaxShards) + "] (kMaxShards, the proposer-slot cap)");
}

CPosModel::CPosModel(double w, double v, std::uint32_t shards)
    : w_(w), v_(v), shards_(shards) {
  ValidateReward(w, "CPosModel: w");
  ValidateInflation(v, "CPosModel: v");
  ValidateShardCount(shards, "CPosModel: ");
}

void CPosModel::StepSlots(StakeState& state, RngStream& rng) const {
  const std::size_t n = state.miner_count();
  const double total = state.total_stake();
  const double per_slot_reward = w_ / static_cast<double>(shards_);

  // P independent categorical draws through the stake sampler,
  // O(P log m).  All slots are drawn BEFORE any reward is credited so
  // every draw sees the epoch-start distribution.  The winner buffer is
  // the state's index scratch: sized on the first epoch, reused by every
  // later one.
  std::vector<std::size_t>& winners = state.index_scratch();
  if (winners.size() < shards_) winners.resize(shards_);
  for (std::uint32_t slot = 0; slot < shards_; ++slot) {
    winners[slot] = state.SampleProportionalToStake(rng);
  }

  // Inflation (attester) reward: exactly proportional to the epoch-start
  // share.  Crediting miner i mutates only stake_[i], which is read exactly
  // once — before its own credit — and `total` is the epoch-start value.
  if (v_ > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      const double stake = state.stake(i);  // epoch-start value for miner i
      if (stake > 0.0) state.CreditStake(i, v_ * (stake / total));
    }
  }

  // Proposer rewards for the sampled slots.
  for (std::uint32_t slot = 0; slot < shards_; ++slot) {
    state.CreditStake(winners[slot], per_slot_reward);
  }
}

double CPosModel::WinProbability(const StakeState& state,
                                 std::size_t i) const {
  return state.StakeShare(i);
}

}  // namespace fairchain::protocol
