// Extension incentive models discussed in Section 6.4 of the paper.
//
//   * NEO       — PoS proposer selection, but rewards are paid in a separate
//                 asset (NEO Gas) that carries no staking power; statistically
//                 identical to PoW, so both fairness notions hold long-term.
//   * Algorand  — inflation-only rewards proportional to stake; zero reward
//                 variance, both fairness notions hold trivially.
//   * EOS       — delegated PoS: each of the m delegates receives an
//                 inflation reward proportional to stake PLUS a constant
//                 proposer reward w/m regardless of stake; the constant part
//                 breaks expectational fairness for any non-uniform stake
//                 distribution.
//
// Wave and Vixify (also discussed in 6.4) are statistically identical to
// FSL-PoS / ML-PoS respectively and are covered by those models; see
// DESIGN.md.

#ifndef FAIRCHAIN_PROTOCOL_EXTENSIONS_HPP_
#define FAIRCHAIN_PROTOCOL_EXTENSIONS_HPP_

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// NEO: stake-proportional proposer selection, non-compounding reward
/// (paid in a separate gas asset).
class NeoModel : public IncentiveModel {
 public:
  /// Creates a NEO model with per-block gas reward `w` > 0.
  explicit NeoModel(double w);

  std::string name() const override { return "NEO"; }
  void Step(StakeState& state, RngStream& rng) const override;
  void RunSteps(StakeState& state, std::uint64_t step_begin,
                std::uint64_t step_count, RngStream& rng) const override;
  double RewardPerStep() const override { return w_; }
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return false; }

 private:
  double w_;
};

/// Algorand: deterministic inflation reward proportional to stake; no
/// proposer reward.
class AlgorandModel : public IncentiveModel {
 public:
  /// Creates an Algorand model with per-epoch inflation total `v` > 0.
  explicit AlgorandModel(double v);

  std::string name() const override { return "Algorand"; }
  void Step(StakeState& state, RngStream& rng) const override;
  double RewardPerStep() const override { return v_; }
  /// No lottery; defined as the stake share for interface uniformity.
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return true; }

 private:
  double v_;
};

/// EOS: delegated PoS round — every miner (delegate) receives w/m constant
/// proposer reward plus v * share inflation.
class EosModel : public IncentiveModel {
 public:
  /// Creates an EOS model.
  ///
  /// \param w  total proposer reward per round (> 0), split equally
  /// \param v  total inflation reward per round (>= 0), split by stake
  EosModel(double w, double v);

  std::string name() const override { return "EOS"; }
  void Step(StakeState& state, RngStream& rng) const override;
  double RewardPerStep() const override { return w_ + v_; }
  /// Every delegate proposes the same number of blocks per round.
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return true; }

 private:
  double w_;
  double v_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_EXTENSIONS_HPP_
