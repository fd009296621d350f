// StakeState: the evolving state of a mining game.
//
// Tracks, per miner, the effective mining power ("stake"), the cumulative
// credited income, and — when reward withholding (Section 6.3) is enabled —
// rewards that have been issued but do not yet count as mining power.
//
// Conventions (matching Section 3.1 of the paper):
//   * initial stakes are the miners' resource shares a, b, ...; the library
//     does not require them to sum to 1 but the paper's parameters (w, v)
//     are interpreted relative to the initial total;
//   * income is credited per step; λ_i = income_i / Σ income_j;
//   * for protocols where rewards compound (all PoS variants), credited
//     income also increases mining power; for PoW / NEO it does not.
//
// Scale: a Fenwick tree over the effective stakes is maintained alongside
// the flat vectors, so proportional proposer selection
// (SampleProportionalToStake) and reinforcement (Credit) are both O(log m)
// — the property that lets one replication step stay cheap at 100k-miner
// populations.  Reset and withholding releases rebuild the tree in O(m).

#ifndef FAIRCHAIN_PROTOCOL_STAKE_STATE_HPP_
#define FAIRCHAIN_PROTOCOL_STAKE_STATE_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/fenwick.hpp"
#include "support/rng.hpp"

namespace fairchain::protocol {

/// Mutable per-game state shared by every incentive model.
class StakeState {
 public:
  /// Starts a game with the given initial resource vector.
  ///
  /// `withhold_period` > 0 enables the paper's reward-withholding remedy:
  /// compounding rewards issued at step s only become mining power at the
  /// next multiple of the period strictly after s (e.g. a reward issued at
  /// block 1024 with period 1000 takes effect at block 2000).
  ///
  /// Throws std::invalid_argument when `initial` is empty, contains a
  /// negative entry, or sums to zero.
  explicit StakeState(std::vector<double> initial,
                      std::uint64_t withhold_period = 0);

  /// Number of competing miners.
  std::size_t miner_count() const { return stake_.size(); }

  /// Current effective mining power of miner `i`.
  double stake(std::size_t i) const { return stake_[i]; }

  /// Total effective mining power (maintained incrementally).
  double total_stake() const { return total_stake_; }

  /// Miner i's share of effective mining power, Z_i in the paper.
  double StakeShare(std::size_t i) const { return stake_[i] / total_stake_; }

  /// Cumulative income credited to miner `i`.
  double income(std::size_t i) const { return income_[i]; }

  /// Total income credited so far.
  double total_income() const { return total_income_; }

  /// λ_i: miner i's fraction of all credited rewards (0 before any reward).
  double RewardFraction(std::size_t i) const {
    return total_income_ > 0.0 ? income_[i] / total_income_ : 0.0;
  }

  /// Miner i's initial resource.
  double initial_stake(std::size_t i) const { return initial_[i]; }

  /// Miner i's initial resource share (the paper's a).
  double InitialShare(std::size_t i) const {
    return initial_[i] / initial_total_;
  }

  /// Initial total resource.
  double initial_total() const { return initial_total_; }

  /// Number of completed steps (blocks / epochs).
  std::uint64_t step() const { return step_; }

  /// Withholding period (0 = disabled).
  std::uint64_t withhold_period() const { return withhold_period_; }

  /// Credits `amount` of reward to miner `i`; throws std::invalid_argument
  /// on a negative amount.
  ///
  /// Income is always recorded immediately.  When `compounds` is true the
  /// amount also becomes mining power — immediately, or at the next
  /// withholding boundary when withholding is enabled.  O(log m) when the
  /// stake changes (the sampler tree is kept in sync), O(1) otherwise.
  void Credit(std::size_t i, double amount, bool compounds);

  // Unchecked inline arms of Credit for the models' Step bodies, which the
  // stepping loop inlines.  `amount` must be finite and >= 0: the models
  // guarantee it by validating their rewards at construction
  // (ValidateReward / ValidateInflation).  They make exactly Credit's state
  // transitions, so mixing them with Credit is safe.

  /// Credit(i, amount, compounds=false): income only, O(1).
  void CreditIncome(std::size_t i, double amount) {
    income_[i] += amount;
    total_income_ += amount;
  }

  /// Credit(i, amount, compounds=true): income now; mining power now
  /// (O(log m)) or, under withholding, at the next boundary (O(1)).
  void CreditStake(std::size_t i, double amount) {
    CreditIncome(i, amount);
    if (withhold_period_ == 0) {
      stake_[i] += amount;
      total_stake_ += amount;
      sampler_.Add(i, amount);
      ++stake_version_;
    } else {
      pending_[i] += amount;
    }
  }

  /// Marks the end of a step: advances the block/epoch counter and releases
  /// withheld rewards when a boundary is crossed.  Called by the model
  /// driver after each IncentiveModel::Step.  Inline: without withholding
  /// this is a single increment on the hot path.
  void AdvanceStep() {
    ++step_;
    if (withhold_period_ != 0 && step_ % withhold_period_ == 0) {
      ReleaseWithheld();
    }
  }

  /// Sum of rewards issued but not yet effective (0 without withholding).
  double PendingTotal() const;

  /// Resets to the initial configuration (reuses allocations).
  void Reset();

  /// Draws the next proposer proportionally to effective stake: one uniform
  /// from `rng`, one O(log m) Fenwick descent.  Zero-stake miners are never
  /// selected.  Equivalent in distribution to the classic O(m) cumulative
  /// scan; the shared hot path of PoW / NEO / ML-PoS / FSL-PoS and of
  /// C-PoS slot assignment when miners outnumber slots (m > P; for
  /// m <= P C-PoS draws slot counts as a binomial chain instead).
  std::size_t SampleProportionalToStake(RngStream& rng) const {
    return sampler_.Sample(rng.NextDouble());
  }

  /// Identical selection to SampleProportionalToStake — same draw, same
  /// winner for every input — through the sampler's branchless descent,
  /// which is ~2x faster when the stake distribution never changes during
  /// the game (PoW / NEO: per-level descent decisions are fresh coin flips
  /// the branch predictor cannot learn).  Compounding protocols should
  /// keep the branchy variant: their concentrated evolving trees make the
  /// predicted-skip descent cheaper (see FenwickSampler::SampleFlat).
  std::size_t SampleProportionalToStaticStake(RngStream& rng) const {
    return sampler_.SampleFlat(rng.NextDouble());
  }

  /// Monotone counter bumped whenever any effective stake changes
  /// (compounding credit, withholding release, reset).  Lets derived-value
  /// caches (e.g. the SL-PoS win-probability vector) detect staleness in
  /// O(1) instead of re-deriving per query.
  std::uint64_t stake_version() const { return stake_version_; }

  /// Per-state scratch cache for a full win-probability vector, keyed by
  /// stake_version.  Owned here (not by the immutable, thread-shared
  /// models) so each replication's state carries its own cache; `mutable`
  /// because filling it does not change the observable game state.
  struct WinProbabilityCache {
    std::uint64_t version = ~std::uint64_t{0};  ///< never a live version
    std::vector<double> probabilities;
  };
  WinProbabilityCache& win_probability_cache() const {
    return win_probability_cache_;
  }

  /// Per-state index scratch buffer: the C-PoS slot winners of one epoch
  /// on its m > P slot path (the m <= P count path needs no scratch).
  /// Owned by the state — not the immutable, thread-shared models — so
  /// steady-state stepping allocates it once per workspace, not per epoch;
  /// `mutable` because scratch contents are not observable game state.
  std::vector<std::size_t>& index_scratch() const { return index_scratch_; }

  /// Appends each miner's wealth — initial resource plus all credited
  /// income, whether or not it compounds or is still withheld — to `out`
  /// (resized to miner_count).  The basis of the population concentration
  /// metrics (Gini / HHI / Nakamoto coefficient).
  void WealthVector(std::vector<double>* out) const;

 private:
  /// Releases all pending stakes into mining power (boundary crossing);
  /// out of line because a release rebuilds the sampler tree in O(m).
  void ReleaseWithheld();

  std::vector<double> initial_;
  std::vector<double> stake_;
  std::vector<double> income_;
  std::vector<double> pending_;
  FenwickSampler sampler_;
  mutable WinProbabilityCache win_probability_cache_;
  mutable std::vector<std::size_t> index_scratch_;
  double initial_total_ = 0.0;
  double total_stake_ = 0.0;
  double total_income_ = 0.0;
  std::uint64_t step_ = 0;
  std::uint64_t withhold_period_ = 0;
  std::uint64_t stake_version_ = 0;
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_STAKE_STATE_HPP_
