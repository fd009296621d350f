// Chain-dynamics replication kernel: fork races, propagation delays, and
// selfish mining on the execution core's contracts.
//
// The paper's incentive games assume an idealized longest-chain world —
// every block commits, no forks, no orphans.  This module is the
// fork-aware counterpart: a checkpoint-segmented kernel (the chain twin
// of core::RunReplicationRange) that the campaign runner steps through
// serial / thread-pool / process-shard backends unchanged.
//
// Two dynamics families:
//
//   * kSelfish — the Eyal–Sirer withholding state machine, the only one in
//     the code base (core/selfish_mining holds its closed form), written so
//     a replication can advance in whole segments between checkpoints: the
//     private lead and tie-race flag live in ChainGameState and carry
//     across segment boundaries, and each checkpoint's λ settles the lead
//     virtually, as a pool publishing its private chain at the horizon
//     would.  `alpha` is the pool's hash share, `gamma` the fraction of
//     honest power that mines on the pool's branch in a tie.
//
//   * kForkRace — a two-group propagation-delay model (tracked group A
//     with hash share `alpha`, the rest B) in which every block event is
//     one discovery.  After a block by X, the other group Y finds a
//     competing block within the propagation window with probability
//     q_Y = 1 - exp(-h_Y · delay) (delay in mean-block-interval units),
//     opening a 1-1 fork.  Races advance in rounds — the extender leads
//     by one, the other side evens up with the same window probability —
//     until a lead survives the window: the longer branch commits, the
//     loser orphans whole (reorg depth = its length).  At delay = 0 the
//     model collapses to iid proportional block production, so the
//     tracked block count is EXACTLY Binomial(n, alpha) — the anchor the
//     verify layer pins.  Closed forms for delay > 0: with
//     ρ = α(1-e^{-(1-α)d}) + (1-α)(1-e^{-αd}), the expected orphan rate
//     (orphans per block event) is ρ/(1+ρ) and the expected reorg depth
//     per resolved race is 1/(1-ρ) — both claimed by the forkrace oracle.
//
// Determinism contract (identical to the core engine): replication r of a
// cell draws from RngStream(config.seed).Split(r); segmenting a
// replication across checkpoints never changes its draw sequence; the
// (λ, chain-metric) matrices are invariant to the [begin, end) partition,
// so every backend produces byte-identical campaigns.

#ifndef FAIRCHAIN_CHAIN_CHAIN_REPLICATION_HPP_
#define FAIRCHAIN_CHAIN_CHAIN_REPLICATION_HPP_

#include <cstdint>
#include <span>
#include <string>

#include "core/monte_carlo.hpp"
#include "support/rng.hpp"

namespace fairchain::chain {

/// Which chain-dynamics game a cell runs.
enum class ChainDynamics {
  kSelfish,   ///< Eyal–Sirer selfish mining (alpha, gamma)
  kForkRace,  ///< two-group propagation-delay fork races (alpha, delay)
};

/// True for the spec-facing names "selfish" / "forkrace".
bool IsKnownChainDynamicsName(const std::string& name);

/// Parses a spec-facing name; throws std::invalid_argument with the known
/// names on anything else.
ChainDynamics ParseChainDynamics(const std::string& name);

/// Everything that parameterises one chain-dynamics cell.
struct ChainGameSpec {
  ChainDynamics dynamics = ChainDynamics::kForkRace;
  /// Tracked hash share: the selfish pool's alpha, or group A's share.
  double alpha = 0.2;
  /// Tie-breaking share of honest power on the pool's branch (selfish
  /// only; ignored by kForkRace).
  double gamma = 0.0;
  /// Propagation delay in mean-block-interval units (forkrace only;
  /// ignored by kSelfish).
  double delay = 0.0;

  /// Throws std::invalid_argument: alpha must lie in (0, 1), gamma in
  /// [0, 1], delay must be finite and >= 0.
  void Validate() const;
};

/// Mutable per-replication state, segmentable at any event boundary.
struct ChainGameState {
  // Committed main-chain blocks.
  std::uint64_t tracked_blocks = 0;  ///< pool / group A
  std::uint64_t other_blocks = 0;    ///< honest miners / group B
  std::uint64_t orphaned_blocks = 0;
  /// Total block-discovery events stepped so far.
  std::uint64_t events = 0;
  // Resolved-reorg accounting (each orphaned branch is one reorg whose
  // depth is the number of blocks the losing side discards).
  std::uint64_t reorg_count = 0;
  std::uint64_t reorg_depth_sum = 0;
  std::uint64_t reorg_depth_max = 0;

  // --- selfish-mining machine ---
  std::uint64_t lead = 0;  ///< private-chain advantage
  bool tie_race = false;   ///< a 1-1 fork is being raced

  // --- fork-race machine ---
  enum class ForkPhase : std::uint8_t {
    kSynced,  ///< one tip; next event is an ordinary discovery
    kForced,  ///< a window draw already committed `pending_tracked`'s side
              ///< to find the next block (fork opening or race catch-up)
    kRace,    ///< two branches race; lengths in tracked/other_branch
  };
  ForkPhase phase = ForkPhase::kSynced;
  /// Unresolved branch lengths: each group mines on its own branch, so a
  /// branch is wholly one side's blocks.  Zero outside a fork.
  std::uint64_t tracked_branch = 0;
  std::uint64_t other_branch = 0;
  /// While phase == kForced: whether the forced next block belongs to the
  /// tracked group.
  bool pending_tracked = false;

  /// Back to the genesis state (all counters zero, synced, no lead).
  void Reset();

  /// λ attribution at a checkpoint: committed tracked blocks plus the
  /// tracked side's unresolved-branch blocks (selfish: the private lead,
  /// settled as if published at the horizon; forkrace: the tracked branch
  /// of an open race), over all attributed blocks.  Falls back to `alpha`
  /// before the first attribution.
  double Lambda(const ChainGameSpec& spec) const;

  /// Orphaned blocks per block event so far (0 before the first event).
  double OrphanRate() const;

  /// Mean depth of resolved reorgs (0 when none resolved yet).
  double ReorgDepthMean() const;
};

/// Advances `state` by `events` block-discovery events of `spec`'s game,
/// drawing from `rng`.  Segment-invariant: N events in one call and in any
/// split of N across calls consume the same draws and land in the same
/// state.
void StepChainEvents(const ChainGameSpec& spec, ChainGameState& state,
                     RngStream& rng, std::uint64_t events);

/// Number of chain-metric planes RunChainReplicationRange records per
/// (checkpoint, replication): orphan_rate, reorg_depth_mean,
/// reorg_depth_max.
inline constexpr std::size_t kChainMetricCount = 3;

/// Doubles a full-cell chain-metric matrix needs: kChainMetricCount planes
/// of (checkpoints × replications), laid out
/// chain_matrix[(metric * cp_count + c) * replications + r] — the same
/// plane layout as core::PopulationMatrixSize.
std::size_t ChainMatrixSize(const core::SimulationConfig& config);

/// Rows RunChainReplicationRange writes per chunk: one λ row per
/// checkpoint, then kChainMetricCount planes of one row per checkpoint.
std::size_t ChainReplicationRowCount(const core::SimulationConfig& config);

/// Runs replications [begin, end) of `spec`'s game under `config` (steps =
/// block events; `config` must pass SimulationConfig::Validate, else
/// std::invalid_argument) and writes
/// them as one chunk-local payload of ChainReplicationRowCount(config) rows
/// with stride end - begin: λ of replication r at checkpoint c at
/// out[c * (end - begin) + (r - begin)], then the chain observables at
/// out[((1 + metric) * cp_count + c) * (end - begin) + (r - begin)] — the
/// layout core::ScatterChunk copies into full-cell matrices.  Replication r
/// always draws from RngStream(config.seed).Split(r), so any partition of
/// [0, replications) across threads, chunks, or forked shard workers
/// produces identical values.  The game state is one flat local, Reset()
/// per replication, so a call performs no heap allocation.
void RunChainReplicationRange(const ChainGameSpec& spec,
                              const core::SimulationConfig& config,
                              std::size_t begin, std::size_t end,
                              double* out);

/// Folds a fully populated chain-metric matrix into `result`'s checkpoint
/// stats: orphan_rate and reorg_depth_mean are means over replications,
/// reorg_depth_max the maximum.  The λ reduction itself stays
/// core::ReduceToResult — chain campaigns reuse it unchanged.
void ReduceChainMetrics(const core::SimulationConfig& config,
                        std::span<const double> chain_matrix,
                        core::SimulationResult& result);

}  // namespace fairchain::chain

#endif  // FAIRCHAIN_CHAIN_CHAIN_REPLICATION_HPP_
