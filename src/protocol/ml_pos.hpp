// ML-PoS: the multi-lottery Proof-of-Stake incentive model (Section 2.2),
// as deployed by Qtum and Blackcoin.
//
// Every timestamp, each miner checks one staking kernel; the first success
// wins.  Because the per-timestamp success probabilities are tiny, the next
// block is won with probability (asymptotically) proportional to *current*
// stake, and the reward compounds into future stake — a classical Pólya urn.
// The fraction of blocks won converges to Beta(a/w, b/w) almost surely
// (Section 4.3), which is why ML-PoS preserves expectational fairness but
// can fail robust fairness.

#ifndef FAIRCHAIN_PROTOCOL_ML_POS_HPP_
#define FAIRCHAIN_PROTOCOL_ML_POS_HPP_

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Multi-lottery PoS: proposer ∝ current stake, reward compounds.
class MlPosModel : public IncentiveModel {
 public:
  /// Creates an ML-PoS model with per-block reward `w` > 0 (expressed in the
  /// same unit as the initial stakes; the paper normalises initial stakes to
  /// a total of 1, making `w` the reward-to-circulation ratio).
  explicit MlPosModel(double w);

  std::string name() const override { return "ML-PoS"; }
  void Step(StakeState& state, RngStream& rng) const override;
  void RunSteps(StakeState& state, std::uint64_t step_begin,
                std::uint64_t step_count, RngStream& rng) const override;
  double RewardPerStep() const override { return w_; }
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return true; }

  /// Per-block reward.
  double block_reward() const { return w_; }

 private:
  double w_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_ML_POS_HPP_
