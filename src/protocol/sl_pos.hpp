// SL-PoS: the single-lottery Proof-of-Stake incentive model (Section 2.3),
// as deployed by NXT.
//
// Each block is a single lottery: miner i draws a deadline
//   T_i = basetime * Hash(pk_i, ...) / stake_i,
// and the smallest deadline wins.  Since Hash/2^256 is uniform on (0, 1),
// T_i ~ U(0, basetime / stake_i) — a *uniform*, not exponential, race, which
// is why the win probability is NOT proportional to stake (a poorer miner A
// with s_a <= s_b wins with probability s_a / (2 s_b) < s_a/(s_a+s_b)).
// With compounding rewards the stake share is a stochastic-approximation
// process whose only stable fixed points are 0 and 1 (Theorem 4.9): the
// game monopolises almost surely.

#ifndef FAIRCHAIN_PROTOCOL_SL_POS_HPP_
#define FAIRCHAIN_PROTOCOL_SL_POS_HPP_

#include <limits>

#include "protocol/incentive_model.hpp"

namespace fairchain::protocol {

/// Single-lottery PoS: uniform-deadline race, reward compounds.
class SlPosModel : public SteppedModel<SlPosModel> {
 public:
  /// Creates an SL-PoS model with per-block reward `w` (finite, > 0).
  explicit SlPosModel(double w);

  std::string name() const override { return "SL-PoS"; }

  /// One deadline race, then a compounding credit to the winner.  One
  /// lottery ticket per miner: deadline U_i / stake_i (basetime cancels),
  /// exactly one uniform per positive-stake miner, in miner order.  Draws
  /// are independent uniforms, so ties have probability zero; a miner with
  /// zero stake draws no ticket and never has the smallest deadline.  The
  /// race is inherently O(m) per block.
  void Step(StakeState& state, RngStream& rng) const final {
    const std::size_t n = state.miner_count();
    std::size_t winner = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const double stake = state.stake(i);
      if (stake <= 0.0) continue;
      const double deadline = rng.NextOpenDouble() / stake;
      if (deadline < best) {
        best = deadline;
        winner = i;
      }
    }
    state.CreditStake(winner, w_);
  }

  double RewardPerStep() const override { return w_; }

  /// Exact win probability for the next block (two-miner closed form of
  /// Eq. (1), Lemma 6.1 quadrature for three or more miners).
  double WinProbability(const StakeState& state, std::size_t i) const override;

  bool RewardCompounds() const override { return true; }

  /// Per-block reward.
  double block_reward() const { return w_; }

 private:
  double w_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_SL_POS_HPP_
