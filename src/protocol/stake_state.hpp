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
// Scale: a Fenwick tree over the effective stakes backs proportional
// proposer selection (SampleProportionalToStake), an O(log m) descent —
// the property that lets one replication step stay cheap at 100k-miner
// populations.  PoW, NEO, ML-PoS and FSL-PoS draw four blocks at a time
// (SampleProportionalToStaticStakeLanes, SampleProportionalToStakeLanes),
// their descents in lock-step so the tree's cache misses overlap; the
// compounding lanes read the tree as the earlier lanes' credits leave it.
// Only models that sample from the tree keep it live:
// ML-PoS, FSL-PoS and the C-PoS slot path credit through CreditStake,
// which updates it in O(log m).  The models that never sample from it
// (the C-PoS count path, SL-PoS, Algorand, EOS) credit through
// CreditStakeUntracked, which leaves it stale instead; a stale tree is
// rebuilt in O(m) before the next draw.  Withholding releases rebuild the
// tree in O(m).  Reset costs O(d log m) for the d miners the game
// credited: a miner joins a dirty list on its first positive credit, and
// Reset restores exactly those miners' entries and tree paths from the
// initial vector and a pristine copy of the initial tree (one extra tree
// per state, about 1 MB at m = 10^5).  Every other miner, and every tree
// node whose range holds no dirty miner, still has its initial bits (a
// rebuild recomputes each node from its own range), so the reset state is
// bit-identical to a fresh one and its tree is no longer stale.  The
// dirty list is also readable (credited_miners): it names the only miners
// whose wealth differs from their initial stake.

#ifndef FAIRCHAIN_PROTOCOL_STAKE_STATE_HPP_
#define FAIRCHAIN_PROTOCOL_STAKE_STATE_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/fenwick.hpp"
#include "support/rng.hpp"

namespace fairchain::protocol {

/// Smallest population whose compounding games (ML-PoS, FSL-PoS) draw
/// through the lock-step lanes (StakeState::CompoundingLanesApply): the
/// crossover on the campaign cells the gate serves.  At m = 2 the lanes
/// read 1.56x slower than the two-element draw (fig3 ML-PoS cells).
/// Campaign CPU, lanes over one-at-a-time, serial, pinned to one CPU, 6
/// alternating pairs, 4-vCPU AVX-512 Xeon VM, gcc 12.2 Release:
///
///   cell (ML-PoS unless named)                 ratio  lanes faster
///   table1 m = 3,  600 reps x 20000 steps      0.80   6/6
///   table1 m = 4,  600 reps                    0.91   6/6
///   table1 m = 5,  600 reps                    0.97   5/6
///   table1 m = 10, 600 reps                    0.95   5/6
///   whale-sweep m = 10, 400 reps               0.97   4/6
///   fig2 FSL-PoS m = 10 split, 3000 reps       0.94   4/6
///   table1 m = 32 split, 400 reps              0.92   4/6
///   pareto:1.16 m = 100, 4000 x 2000 steps     0.99   3/6
///
/// BM_Batched_MlPos / BM_Batched_FslPos (16384-step games on pareto:1.16
/// stakes, whose trees concentrate far more than any registry cell's; 10
/// adjacent pairs each) read the other way: 1.14 / 1.16 at m = 3, 1.15 /
/// 1.14 at 4, 1.17 / 1.17 at 5, 1.15 / 1.09 at 10, 1.15 / 1.11 at 32,
/// 1.06 / 1.03 at 100 and 0.98 / 1.06 at 1000.  The gate follows the
/// campaign cells.
inline constexpr std::size_t kCompoundingLanesMinMiners = 3;

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
  /// negative or non-finite entry, or sums to zero or to infinity.
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
  /// on a negative or non-finite amount.
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
    // A miner's first positive credit appends it to the list Reset undoes.
    // Branch-free: the index is always written one past the list's end and
    // kept only on a first credit, because a mispredicted branch here would
    // flush the next step's sampler descent (first credits are frequent
    // and unpredictable while a game spreads over a large population).
    // Income only grows, so each miner is kept at most once: the m + 1
    // slots sized at construction always suffice.
    dirty_[dirty_count_] = i;
    dirty_count_ += static_cast<std::size_t>((income_[i] == 0.0) &
                                             (amount > 0.0));
    income_[i] += amount;
    total_income_ += amount;
  }

  /// Credit(i, amount, compounds=true): income now; mining power now
  /// (O(log m)) or, under withholding, at the next boundary (O(1)).
  void CreditStake(std::size_t i, double amount) {
    if (CreditCompounding(i, amount)) sampler_.Add(i, amount);
  }

  /// CreditStake without the O(log m) sampler-tree update, for models that
  /// never sample from the tree: the stake changes the same way, but the
  /// tree goes stale, and the next SampleProportionalTo*Stake rebuilds it
  /// in O(m) first.  O(1).
  void CreditStakeUntracked(std::size_t i, double amount) {
    if (CreditCompounding(i, amount)) tree_stale_ = true;
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

  /// Resets to the initial configuration, bit for bit, in O(d log m) for
  /// the d miners credited since the last reset (allocates nothing).
  void Reset();

  /// Draws the next proposer proportionally to effective stake: one uniform
  /// from `rng`, one O(log m) Fenwick descent.  Zero-stake miners are never
  /// selected, not even at a rounding boundary.  Equivalent in
  /// distribution to the classic O(m) cumulative scan; the shared hot path
  /// of ML-PoS / FSL-PoS and of C-PoS slot assignment when miners
  /// outnumber slots (m > P; for m <= P C-PoS draws slot counts as a
  /// binomial chain instead).  PoW / NEO take the same winners through
  /// the static-stake variants below.
  std::size_t SampleProportionalToStake(RngStream& rng) const {
    if (tree_stale_) RebuildTree();
    return sampler_.Sample(rng.NextDouble());
  }

  /// Identical selection to SampleProportionalToStake — same draw, same
  /// winner for every input — through the sampler's branchless descent,
  /// which wins when the stake distribution never changes during the game
  /// (PoW / NEO: per-level descent decisions are fresh coin flips the
  /// branch predictor cannot learn).  A compounding game's single draws
  /// stay on the branchy variant, whose predicted skips are cheaper on its
  /// concentrated evolving tree; its lock-step draws are
  /// SampleProportionalToStakeLanes (see FenwickSampler::SampleFlat).
  std::size_t SampleProportionalToStaticStake(RngStream& rng) const {
    if (tree_stale_) RebuildTree();
    return sampler_.SampleFlat(rng.NextDouble());
  }

  /// FenwickSampler::kLanes SampleProportionalToStaticStake draws in one
  /// call: the uniforms are taken from `rng` in order, and winner k is
  /// exactly what the k-th of as many single calls would return.  The
  /// descents run in lock-step (the sampler's lane SampleFlat), so this is
  /// only for stakes that no credit between the draws can move — the
  /// static-stake stepping loop of SteppedModel.
  FenwickSampler::LaneIndices SampleProportionalToStaticStakeLanes(
      RngStream& rng) const {
    if (tree_stale_) RebuildTree();
    return sampler_.SampleFlat(NextLaneUniforms(rng));
  }

  /// FenwickSampler::kLanes SampleProportionalToStake draws in one call,
  /// for a game that credits `gain` to each winner between them: the
  /// uniforms are taken from `rng` in order, and winner k is exactly what
  /// the k-th single draw would return after CreditStake(winner, gain) of
  /// each earlier one.  The credits are the caller's to make, in order;
  /// only exact while each goes into the tree at once, which is what
  /// CompoundingLanesApply checks.
  FenwickSampler::LaneIndices SampleProportionalToStakeLanes(
      RngStream& rng, double gain) const {
    if (tree_stale_) RebuildTree();
    return sampler_.SampleFlat(NextLaneUniforms(rng), gain);
  }

  /// True when a compounding game may draw through
  /// SampleProportionalToStakeLanes: no withholding (a credit moves the
  /// tree at once) and a live tree, both needed for exactness, and at
  /// least kCompoundingLanesMinMiners miners with no zero stake, where the
  /// lanes pay: with a zero stake every lane's winner takes the sampler's
  /// out-of-line zero-weight check.  Positive credits to drawn winners
  /// change none of this.
  bool CompoundingLanesApply() const {
    return withhold_period_ == 0 && !tree_stale_ &&
           stake_.size() >= kCompoundingLanesMinMiners &&
           !sampler_.has_zero_weight();
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

  /// The miners credited since the last Reset, in order of first positive
  /// credit, each once: exactly the miners whose income is nonzero.  Every
  /// other miner's wealth (initial resource plus credited income) is still
  /// its initial stake, bit for bit, which lets the population metrics
  /// merge these d miners into a cached order instead of sorting all m
  /// (see core/population.hpp).  Valid until the next credit or Reset.
  std::span<const std::size_t> credited_miners() const {
    return {dirty_.data(), dirty_count_};
  }

 private:
  /// Releases all pending stakes into mining power (boundary crossing);
  /// out of line because a release rebuilds the sampler tree in O(m).
  void ReleaseWithheld();

  /// Brings a stale sampler tree back in line with stake_, in O(m).
  void RebuildTree() const;

  /// The uniforms of one lock-step draw, in RNG order.
  static FenwickSampler::LaneUniforms NextLaneUniforms(RngStream& rng) {
    FenwickSampler::LaneUniforms u01;
    for (double& u : u01) u = rng.NextDouble();
    return u01;
  }

  /// The flat-vector half of a compounding credit: income now, and mining
  /// power now (returns true; the caller updates or stales the tree) or at
  /// the next withholding boundary (returns false).
  bool CreditCompounding(std::size_t i, double amount) {
    CreditIncome(i, amount);
    if (withhold_period_ != 0) {
      pending_[i] += amount;
      return false;
    }
    stake_[i] += amount;
    total_stake_ += amount;
    ++stake_version_;
    return true;
  }

  std::vector<double> initial_;
  std::vector<double> stake_;
  std::vector<double> income_;
  std::vector<double> pending_;
  /// Proportional sampler over stake_; `mutable` because a draw may first
  /// rebuild it, which changes no observable game state.
  mutable FenwickSampler sampler_;
  FenwickSampler pristine_sampler_;  ///< sampler_ as built from initial_
  mutable bool tree_stale_ = false;  ///< sampler_ misses untracked credits
  std::vector<std::size_t> dirty_;   ///< miners credited since the Reset
  std::size_t dirty_count_ = 0;      ///< live entries of dirty_
  mutable WinProbabilityCache win_probability_cache_;
  mutable std::vector<std::size_t> index_scratch_;
  double initial_total_ = 0.0;
  double total_stake_ = 0.0;
  double total_income_ = 0.0;
  std::uint64_t step_ = 0;
  std::uint64_t withhold_period_ = 0;
  std::uint64_t stake_version_ = 0;
  std::uint64_t reset_version_ = 0;  ///< stake_version_ after the Reset
};

}  // namespace fairchain::protocol

#endif  // FAIRCHAIN_PROTOCOL_STAKE_STATE_HPP_
