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

  /// Proportional proposer selection over the state's stake sampler: one
  /// uniform draw, O(log m).  Stakes never change, so the sampler tree is
  /// frozen and the branchless static-stake descent applies (identical
  /// winners, ~2x faster on flat trees); the reward is income only.
  void Step(StakeState& state, RngStream& rng) const final {
    state.CreditIncome(state.SampleProportionalToStaticStake(rng), w_);
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
