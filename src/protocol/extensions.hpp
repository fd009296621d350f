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
#include "protocol/pow.hpp"

namespace fairchain::protocol {

/// NEO: stake-proportional proposer selection, non-compounding reward
/// (paid in a separate gas asset).  Gas never becomes stake, so the base
/// asset — and with it the selection law — stays fixed: PoW's law under
/// its own name.
class NeoModel : public PowModel {
 public:
  using PowModel::PowModel;

  std::string name() const override { return "NEO"; }
};

/// Algorand: deterministic inflation reward proportional to stake; no
/// proposer reward.
class AlgorandModel : public SteppedModel<AlgorandModel> {
 public:
  /// Creates an Algorand model with per-epoch inflation total `v` (finite,
  /// > 0).
  explicit AlgorandModel(double v);

  std::string name() const override { return "Algorand"; }
  void Step(StakeState& state, RngStream& rng) const final;
  double RewardPerStep() const override { return v_; }
  /// No lottery; defined as the stake share for interface uniformity.
  double WinProbability(const StakeState& state, std::size_t i) const override;
  bool RewardCompounds() const override { return true; }

 private:
  double v_;
};

/// EOS: delegated PoS round — every miner (delegate) receives w/m constant
/// proposer reward plus v * share inflation.
class EosModel : public SteppedModel<EosModel> {
 public:
  /// Creates an EOS model.
  ///
  /// \param w  total proposer reward per round (finite, > 0), split equally
  /// \param v  total inflation reward per round (finite, >= 0), split by
  ///           stake
  EosModel(double w, double v);

  std::string name() const override { return "EOS"; }
  void Step(StakeState& state, RngStream& rng) const final;
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
