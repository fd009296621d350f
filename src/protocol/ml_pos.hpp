// ML-PoS: the multi-lottery Proof-of-Stake incentive model (Section 2.2),
// as deployed by Qtum and Blackcoin, and FSL-PoS, the paper's "fair
// single-lottery" treatment for SL-PoS (Section 6.2), which shares its law.
//
// ML-PoS: every timestamp, each miner checks one staking kernel; the first
// success wins.  Because the per-timestamp success probabilities are tiny,
// the next block is won with probability (asymptotically) proportional to
// *current* stake, and the reward compounds into future stake — a classical
// Pólya urn.  The fraction of blocks won converges to Beta(a/w, b/w) almost
// surely (Section 4.3), which is why ML-PoS preserves expectational fairness
// but can fail robust fairness.
//
// FSL-PoS: SL-PoS is unfair because its deadline T = basetime * Hash / stake
// is a *uniform* random variable scaled by 1/stake.  The treatment replaces
// the time function with the inverse-exponential transform
//   time = basetime * ( -ln(1 - Hash / 2^256) ) / stake,
// making the deadlines exponential with rate `stake`; the minimum of
// independent exponentials is won with probability exactly proportional to
// rate, restoring expectational fairness.  The dynamics then coincide with
// ML-PoS (a Pólya urn), so robust fairness still requires small w or reward
// withholding (Figure 6).

#ifndef FAIRCHAIN_PROTOCOL_ML_POS_HPP_
#define FAIRCHAIN_PROTOCOL_ML_POS_HPP_

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Multi-lottery PoS: proposer ∝ current stake, reward compounds.
class MlPosModel : public SteppedModel<MlPosModel> {
 public:
  /// Creates an ML-PoS model with per-block reward `w` (finite, > 0),
  /// expressed in the same unit as the initial stakes; the paper normalises
  /// initial stakes to a total of 1, making `w` the reward-to-circulation
  /// ratio.
  explicit MlPosModel(double w);

  std::string name() const override { return "ML-PoS"; }

  /// The law's second half: the block reward compounds into the winner's
  /// stake, an O(log m) reinforcement of its tree path.
  void Credit(StakeState& state, std::size_t winner) const {
    state.CreditStake(winner, w_);
  }

  /// What Credit adds to the winner's draw weight: the reward.  Declaring
  /// it lets SteppedModel::RunSteps draw four blocks per lock-step descent,
  /// each lane seeing the earlier lanes' rewards.
  double DrawWeightGain() const { return w_; }

  /// Proposer selection proportional to current effective stake: one
  /// O(log m) sampler descent, then Credit — the Pólya-urn step.
  void Step(StakeState& state, RngStream& rng) const final {
    Credit(state, state.SampleProportionalToStake(rng));
  }

  double RewardPerStep() const override { return w_; }
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return true; }

  /// Per-block reward.
  double block_reward() const { return w_; }

 private:
  double w_;
};

/// Fair single-lottery PoS: exponential-deadline race, reward compounds.
/// The race T_i = -ln(U_i) / stake_i falls on miner i with probability
/// stake_i / total exactly, so it is sampled as ML-PoS's single
/// categorical draw: the same law, under its own name.
class FslPosModel : public MlPosModel {
 public:
  using MlPosModel::MlPosModel;

  std::string name() const override { return "FSL-PoS"; }
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_ML_POS_HPP_
