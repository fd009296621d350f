// Replicated Monte Carlo simulation of mining games: the replication kernel
// and its reduction.
//
// RunReplicationRange runs a range of R independent replications of a
// mining game for n steps and records miner A's reward fraction λ at a set
// of checkpoints; ReduceToResult reduces the per-checkpoint samples to the
// statistics the paper plots:
//   * mean λ                         (expectational fairness — Figure 2 line)
//   * 5th / 95th percentile band     (Figure 2 shaded area)
//   * unfair probability             (Figures 3 & 5)
//   * convergence step               (Table 1 "Cvg. Time": first checkpoint
//                                     from which (ε, δ)-fairness holds)
// sim::CampaignRunner is the one driver: it cuts every cell's replications
// into chunks, runs the kernel on each, and reduces the full matrix.
//
// Determinism: replication r always uses RngStream(seed).Split(r), so
// results are identical for any partition into chunks.

#ifndef FAIRCHAIN_CORE_MONTE_CARLO_HPP_
#define FAIRCHAIN_CORE_MONTE_CARLO_HPP_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fairness.hpp"
#include "core/population.hpp"
#include "core/replication_workspace.hpp"
#include "protocol/incentive_model.hpp"

namespace fairchain::core {

/// Configuration of one simulation campaign.
struct SimulationConfig {
  /// Horizon: number of blocks (or epochs) per replication.
  std::uint64_t steps = 5000;
  /// Number of independent replications (the paper uses 10,000).
  std::uint64_t replications = 10000;
  /// Master seed; replication r uses the r-th split stream.
  std::uint64_t seed = 20210620;  // SIGMOD'21 opening day
  /// Steps at which λ is recorded: non-empty, ascending, each in
  /// [1, steps].
  std::vector<std::uint64_t> checkpoints;
  /// Reward-withholding period (Section 6.3); 0 disables.
  std::uint64_t withhold_period = 0;
  /// Index of the miner whose λ is tracked (the paper's miner A).
  std::size_t miner = 0;
  /// Record population concentration metrics (Gini / HHI / Nakamoto /
  /// top-decile share over miner wealth) at every checkpoint.  Costs an
  /// O(m + d log d) merge per (replication, checkpoint), d the miners
  /// credited so far (core::PopulationMeter); disable for pure hot-path
  /// throughput runs at extreme populations.
  bool population_metrics = true;
  /// Retain every replication's final-checkpoint λ in
  /// SimulationResult::final_lambdas (an O(replications) vector).  Keep on
  /// for distribution inspection / Expectational(); turn off (spec key
  /// `final_lambdas=off`) for 100k-replication cells that only read the
  /// reduced checkpoint statistics.
  bool keep_final_lambdas = true;

  /// Validates ranges, including a non-empty checkpoint list; throws
  /// std::invalid_argument.
  void Validate() const;
};

/// Statistics of λ at one checkpoint, across replications.
struct CheckpointStats {
  std::uint64_t step = 0;
  double mean = 0.0;
  double std_dev = 0.0;
  double p05 = 0.0;   ///< 5th percentile (bottom of the paper's blue band)
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;   ///< 95th percentile (top of the band)
  double min = 0.0;
  double max = 0.0;
  double unfair_probability = 0.0;  ///< Pr[λ outside fair area]

  // Population concentration metrics, averaged across replications (NaN
  // when SimulationConfig::population_metrics is off).  See
  // core/population.hpp for definitions; wealth = initial resource +
  // cumulative credited income.
  double gini = std::numeric_limits<double>::quiet_NaN();
  double hhi = std::numeric_limits<double>::quiet_NaN();
  double nakamoto = std::numeric_limits<double>::quiet_NaN();
  double top_decile_share = std::numeric_limits<double>::quiet_NaN();

  // Chain-dynamics observables (NaN for ordinary incentive cells; filled
  // by chain::ReduceChainMetrics for fork/propagation/selfish campaigns).
  // orphan_rate / reorg_depth_mean are averages across replications,
  // reorg_depth_max the maximum across replications.
  double orphan_rate = std::numeric_limits<double>::quiet_NaN();
  double reorg_depth_mean = std::numeric_limits<double>::quiet_NaN();
  double reorg_depth_max = std::numeric_limits<double>::quiet_NaN();
};

/// Full result of a simulation campaign.
struct SimulationResult {
  std::string protocol;
  double initial_share = 0.0;  ///< a — miner A's initial resource share
  FairnessSpec spec;
  SimulationConfig config;
  std::vector<CheckpointStats> checkpoints;
  /// λ of every replication at the final checkpoint, in replication order
  /// (for distribution inspection / histograms).  Empty when
  /// SimulationConfig::keep_final_lambdas is off.
  std::vector<double> final_lambdas;

  /// The last checkpoint's statistics.
  const CheckpointStats& Final() const;

  /// First checkpoint step from which the unfair probability stays <= δ
  /// through the horizon; std::nullopt when never achieved ("Never" in
  /// Table 1).
  std::optional<std::uint64_t> ConvergenceStep() const;

  /// Expectational fairness report at the horizon.
  ExpectationalFairnessReport Expectational() const;
};

/// Number of doubles a per-replication population-metric matrix needs:
/// kPopulationMetricCount planes of (checkpoints × replications).  Layout:
/// population_matrix[(metric * cp_count + c) * replications + r].
std::size_t PopulationMatrixSize(const SimulationConfig& config);

/// Rows RunReplicationRange writes per chunk: one λ row per checkpoint,
/// then — when `config.population_metrics` is on — kPopulationMetricCount
/// planes of one row per checkpoint.
std::size_t ReplicationRowCount(const SimulationConfig& config);

/// Runs replications [begin, end) of `model` from `initial_stakes` under
/// `config` and writes them as one chunk-local payload of
/// ReplicationRowCount(config) rows with stride end - begin: λ of
/// replication r at checkpoint c at out[c * (end - begin) + (r - begin)],
/// then (population_metrics on) the wealth concentration metrics at
/// out[((1 + metric) * cp_count + c) * (end - begin) + (r - begin)].
/// ScatterChunk copies such a payload into a full-cell matrix.
/// `config` must pass Validate and `config.miner` must index into
/// `initial_stakes` (throws std::invalid_argument otherwise).  Replication
/// r always draws from
/// RngStream(config.seed).Split(r), so any partition of [0, replications)
/// across chunks, threads or processes produces identical values.
///
/// `workspace` is the arena the replications step in; it is Bind()-ed to
/// this call's configuration (free when already bound — the steady state)
/// and left bound on return.  Steps between checkpoints are driven through
/// the model's batched RunSteps in whole segments, so the per-step cost is
/// the protocol's inner loop — no virtual dispatch, no allocation.
void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* out,
                         ReplicationWorkspace& workspace);

/// Convenience overload running in this thread's workspace
/// (ThreadLocalReplicationWorkspace).
void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* out);

/// Copies a chunk-local payload for replications [begin, end) of a cell
/// with `replications` replications (rows of stride end - begin, as
/// RunReplicationRange and chain::RunChainReplicationRange write them)
/// into the same rows of the full-cell `matrix` (stride `replications`):
/// row k, replication r lands at matrix[k * replications + r].  A payload
/// of every replication already has that layout; callers move it in whole
/// instead of copying.
void ScatterChunk(const std::vector<double>& payload, std::size_t begin,
                  std::size_t end, std::size_t replications, double* matrix);

/// Reduces a fully populated λ matrix (layout as RunReplicationRange) plus
/// an optional population matrix (empty = no metrics; otherwise exactly
/// PopulationMatrixSize doubles) to per-checkpoint statistics: the step
/// after every chunk of a cell is in.  Throws std::invalid_argument when
/// `config.miner` is out of range for `initial_stakes`.
SimulationResult ReduceToResult(
    const std::string& protocol_name,
    const std::vector<double>& initial_stakes, const SimulationConfig& config,
    const FairnessSpec& spec, std::span<const double> lambda_matrix,
    std::span<const double> population_matrix);

/// Evenly spaced checkpoints {step/count, 2*step/count, ..., steps}.
/// Exact at every magnitude: the k·steps/count intermediate is evaluated in
/// 128-bit arithmetic, so horizons near 2^64 cannot wrap.
std::vector<std::uint64_t> LinearCheckpoints(std::uint64_t steps,
                                             std::size_t count);

/// Log-spaced checkpoints from `first` to `steps` (inclusive, deduplicated,
/// clamped so rounding can never emit a checkpoint beyond `steps`);
/// used for the 10^5-block SL-PoS horizon of Figure 4.
std::vector<std::uint64_t> LogCheckpoints(std::uint64_t steps,
                                          std::size_t count,
                                          std::uint64_t first = 10);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_MONTE_CARLO_HPP_
