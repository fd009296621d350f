// FSL-PoS: the paper's "fair single-lottery" treatment for SL-PoS
// (Section 6.2).
//
// SL-PoS is unfair because its deadline T = basetime * Hash / stake is a
// *uniform* random variable scaled by 1/stake.  The treatment replaces the
// time function with the inverse-exponential transform
//   time = basetime * ( -ln(1 - Hash / 2^256) ) / stake,
// making the deadlines exponential with rate `stake`; the minimum of
// independent exponentials is won with probability exactly proportional to
// rate, restoring expectational fairness.  The dynamics then coincide with
// ML-PoS (a Pólya urn), so robust fairness still requires small w or reward
// withholding (Figure 6).

#ifndef FAIRCHAIN_PROTOCOL_FSL_POS_HPP_
#define FAIRCHAIN_PROTOCOL_FSL_POS_HPP_

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Fair single-lottery PoS: exponential-deadline race, reward compounds.
class FslPosModel : public IncentiveModel {
 public:
  /// Creates an FSL-PoS model with per-block reward `w` > 0.
  explicit FslPosModel(double w);

  std::string name() const override { return "FSL-PoS"; }
  void Step(StakeState& state, RngStream& rng) const override;
  void RunSteps(StakeState& state, std::uint64_t step_begin,
                std::uint64_t step_count, RngStream& rng) const override;
  double RewardPerStep() const override { return w_; }

  /// Exactly proportional: stake share (the point of the treatment).
  double WinProbability(const StakeState& state, std::size_t i) const override;

  bool RewardCompounds() const override { return true; }

  /// Per-block reward.
  double block_reward() const { return w_; }

 private:
  double w_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_FSL_POS_HPP_
