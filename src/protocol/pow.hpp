// PoW incentive model (Section 2.1).
//
// The proposer of each block is the winner of a race between independent
// Poisson processes with rates proportional to hash power; equivalently each
// block is won by miner i with probability H_i / Σ H_j, independently of all
// previous outcomes.  Rewards are currency, not hash power, so they never
// feed back into the competition: PoW does not compound.

#ifndef FAIRCHAIN_PROTOCOL_POW_HPP_
#define FAIRCHAIN_PROTOCOL_POW_HPP_

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Proof-of-Work: i.i.d. proportional proposer selection, block reward `w`.
class PowModel : public SteppedModel<PowModel> {
 public:
  /// Creates a PoW model with per-block reward `w` (finite, > 0).
  explicit PowModel(double w);

  std::string name() const override { return "PoW"; }

  /// The law's second half: the block reward goes to `winner` as income
  /// only, so no credit ever moves a stake.  Declaring it makes PoW a
  /// static-stake model: SteppedModel::RunSteps draws four winners per
  /// lock-step descent and credits them in order.
  void Credit(StakeState& state, std::size_t winner) const {
    state.CreditIncome(winner, w_);
  }

  /// What Credit adds to the winner's draw weight: nothing, at compile
  /// time, so the lanes take the correction-free descent.
  static constexpr double DrawWeightGain() { return 0.0; }

  /// Proportional proposer selection over the state's stake sampler: one
  /// uniform draw, O(log m).  Stakes never change, so the sampler tree is
  /// frozen and the branchless static-stake descent applies (identical
  /// winners to the branchy one); then Credit.
  void Step(StakeState& state, RngStream& rng) const final {
    Credit(state, state.SampleProportionalToStaticStake(rng));
  }

  double RewardPerStep() const override { return w_; }
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return false; }

  /// Per-block reward.
  double block_reward() const { return w_; }

 private:
  double w_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_POW_HPP_
