#include "protocol/c_pos.hpp"

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "math/distributions.hpp"

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

void CPosModel::Step(StakeState& state, RngStream& rng) const {
  const std::size_t n = state.miner_count();
  const double total = state.total_stake();
  const double per_slot_reward = w_ / static_cast<double>(shards_);

  // All rewards in an epoch are computed against the epoch-start stake
  // distribution (the paper's X ~ Bin(P, S_A / (S_A + S_B)) snapshot):
  // the slot counts are multinomial over the epoch-start shares.
  if (n <= shards_) {
    // Count path: a conditional-binomial chain over the miners,
    //   X_i ~ Bin(P - sum_{j<i} X_j, s_i / sum_{j>=i} s_j),
    // one uniform per positive-stake miner until the slots run out, then
    // one credit per miner of v * s_i / S + (w / P) * X_i.  Crediting
    // miner i mutates only stake_[i], which is read before its own credit,
    // so every later miner still sees its epoch-start stake.
    std::size_t last = n - 1;  // the last positive stake takes the rest
    while (state.stake(last) == 0.0) --last;
    std::uint64_t slots_left = shards_;
    double stake_left = total;
    for (std::size_t i = 0; i <= last; ++i) {
      const double stake = state.stake(i);
      if (stake == 0.0) continue;  // no slots, no inflation, no draw
      std::uint64_t slots = slots_left;
      if (i != last && slots_left != 0) {
        // Rounding in the running remainder can push the ratio past 1.
        const double share = stake < stake_left ? stake / stake_left : 1.0;
        slots = math::SampleBinomial(rng, slots_left, share);
        stake_left -= stake;
      }
      slots_left -= slots;
      const double reward =
          v_ * (stake / total) + per_slot_reward * static_cast<double>(slots);
      if (reward > 0.0) state.CreditStake(i, reward);
    }
    return;
  }

  // Slot path (m > P, where the O(m) chain would cost more than P draws):
  // P independent categorical draws through the stake sampler, O(P log m).
  // All slots are drawn BEFORE any reward is credited so every draw sees
  // the epoch-start distribution.  The winner buffer is the state's index
  // scratch: sized on the first epoch, reused by every later one.
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
