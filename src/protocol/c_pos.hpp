// C-PoS: the compound Proof-of-Stake incentive model of Ethereum 2.0
// (Section 2.4), generalised as in the paper's analysis.
//
// Each mining epoch:
//   * P proposer slots ("shards") are filled independently, each by a miner
//     drawn with probability proportional to epoch-start stake; a miner
//     winning X slots receives a proposer reward of w * X / P, so each
//     miner's X ~ Bin(P, share) and the counts are jointly multinomial;
//   * every miner additionally receives an inflation (attester) reward of
//     v * (stake share) — deterministic and exactly proportional.
//
// The simulation picks its sampling method by the miner count m alone.
// For m <= P (every paper cell but fig5d's P = 1) it draws the counts
// directly as a conditional-binomial chain,
// X_i ~ Bin(P - sum_{j<i} X_j, s_i / sum_{j>=i} s_j) — about one uniform
// per miner — and credits each miner once.  That count path is the
// costliest kernel of the paper's campaigns, so Step keeps it in this
// header, where the stepping loop inlines it together with the n <= 64
// binomial draw, and its credits skip the stake sampler tree it never
// samples from.  For m > P the O(m) chain would cost more than the slots
// themselves, so the slot path makes P categorical draws through the
// stake sampler and credits slot by slot.  Both are exact draws of the
// same multinomial.
//
// The inflation reward dilutes the variance contributed by proposer
// selection, which is why C-PoS achieves robust fairness far more easily
// than ML-PoS (Theorem 4.10); with v = 0 and P = 1, C-PoS degenerates to
// ML-PoS exactly.

#ifndef FAIRCHAIN_PROTOCOL_C_POS_HPP_
#define FAIRCHAIN_PROTOCOL_C_POS_HPP_

#include <cstddef>
#include <cstdint>
#include <string>

#include "math/distributions.hpp"
#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Largest accepted shard count P (proposer slots per epoch).  The paper
/// uses P ∈ {1, 32}.  Callers holding a wider integer check it against this
/// cap (ValidateShardCount) before narrowing to uint32_t, so 2^32 + 1
/// cannot wrap to 1 and 3e9 cannot size a slot buffer.
inline constexpr std::uint64_t kMaxShards = 4096;

/// Throws std::invalid_argument unless 1 <= shards <= kMaxShards.  The
/// message starts with `prefix` (e.g. "CPosModel: ") and names the value
/// and the cap.
void ValidateShardCount(std::uint64_t shards, const std::string& prefix);

/// Compound PoS: sharded proposer lottery plus proportional inflation.
class CPosModel : public SteppedModel<CPosModel> {
 public:
  /// Creates a C-PoS model.
  ///
  /// \param w       total proposer reward per epoch (finite, > 0)
  /// \param v       total inflation (attester) reward per epoch (finite,
  ///                >= 0)
  /// \param shards  number of proposer slots P per epoch, in
  ///                [1, kMaxShards]; Ethereum 2.0 uses P = 32
  CPosModel(double w, double v, std::uint32_t shards);

  std::string name() const override { return "C-PoS"; }

  /// One epoch's slot draws and credits: the count path for m <= P,
  /// inline here with its binomial draws; the slot path for m > P out of
  /// line.
  ///
  /// All rewards in an epoch are computed against the epoch-start stake
  /// distribution (the paper's X ~ Bin(P, S_A / (S_A + S_B)) snapshot):
  /// the slot counts are multinomial over the epoch-start shares.
  void Step(StakeState& state, RngStream& rng) const final {
    const std::size_t n = state.miner_count();
    if (n > shards_) {
      StepSlots(state, rng);
      return;
    }
    // Count path: a conditional-binomial chain over the miners,
    //   X_i ~ Bin(P - sum_{j<i} X_j, s_i / sum_{j>=i} s_j),
    // one uniform per positive-stake miner until the slots run out, then
    // one credit per miner of v * s_i / S + (w / P) * X_i.  Crediting
    // miner i mutates only stake_[i], which is read before its own credit,
    // so every later miner still sees its epoch-start stake.  Nothing here
    // samples from the stake tree, so the credits are untracked.
    const double total = state.total_stake();
    const double per_slot_reward = w_ / static_cast<double>(shards_);
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
      if (reward > 0.0) state.CreditStakeUntracked(i, reward);
    }
  }

  double RewardPerStep() const override { return w_ + v_; }

  /// Per-slot proposer selection probability (= stake share).
  double WinProbability(const StakeState& state, std::size_t i) const override;

  bool RewardCompounds() const override { return true; }

  double proposer_reward() const { return w_; }
  double inflation_reward() const { return v_; }
  std::uint32_t shards() const { return shards_; }

 private:
  /// The m > P slot path: P categorical draws through the stake sampler,
  /// then slot-by-slot credits that keep the sampler tree live.
  void StepSlots(StakeState& state, RngStream& rng) const;

  double w_;
  double v_;
  std::uint32_t shards_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_C_POS_HPP_
