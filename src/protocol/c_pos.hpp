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
// For m <= P it draws the counts directly as a conditional-binomial chain,
// X_i ~ Bin(P - sum_{j<i} X_j, s_i / sum_{j>=i} s_j) — about one uniform
// per miner — and credits each miner once.  For m > P that O(m) chain
// would cost more than the slots themselves, so it makes P categorical
// draws through the stake sampler and credits slot by slot.  Both are
// exact draws of the same multinomial.
//
// The inflation reward dilutes the variance contributed by proposer
// selection, which is why C-PoS achieves robust fairness far more easily
// than ML-PoS (Theorem 4.10); with v = 0 and P = 1, C-PoS degenerates to
// ML-PoS exactly.

#ifndef FAIRCHAIN_PROTOCOL_C_POS_HPP_
#define FAIRCHAIN_PROTOCOL_C_POS_HPP_

#include <cstdint>
#include <string>

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

  /// One epoch's slot draws and credits: the count path for m <= P, the
  /// slot path for m > P.
  void Step(StakeState& state, RngStream& rng) const final;

  double RewardPerStep() const override { return w_ + v_; }

  /// Per-slot proposer selection probability (= stake share).
  double WinProbability(const StakeState& state, std::size_t i) const override;

  bool RewardCompounds() const override { return true; }

  double proposer_reward() const { return w_; }
  double inflation_reward() const { return v_; }
  std::uint32_t shards() const { return shards_; }

 private:
  double w_;
  double v_;
  std::uint32_t shards_;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_C_POS_HPP_
