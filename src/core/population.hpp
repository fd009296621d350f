// Population-level wealth-concentration metrics.
//
// The paper's two-miner figures ask whether miner A's reward share drifts;
// at realistic population scale the interesting question is distributional:
// does the whole wealth distribution concentrate?  These are the standard
// summary statistics of that question (cf. arXiv:2207.11714 and
// arXiv:1910.09786):
//
//   * Gini coefficient      — 0 = perfect equality, -> 1 = one miner owns all;
//   * HHI                   — Herfindahl–Hirschman index, Σ share²; 1/m for a
//                             uniform population, 1 for a monopoly;
//   * Nakamoto coefficient  — smallest number of miners jointly controlling
//                             a strict majority (> 1/2) of wealth;
//   * top-decile share      — wealth fraction held by the richest ⌈m/10⌉
//                             miners.
//
// The replication kernel records these per replication at every checkpoint
// (over miner wealth = initial resource + cumulative credited income) and
// reduces them to per-checkpoint means alongside the λ statistics.
//
// Every metric is one O(m) pass over the ascending wealth vector.  Two
// paths produce that vector, and both feed the same pass:
//
//   * MeasurePopulation(wealth, scratch) sorts a caller's vector,
//     O(m log m);
//   * PopulationMeter::Measure(state) reads a game state.  A miner the game
//     never credited still has wealth initial + 0.0, bit-equal to its
//     initial stake, so the meter keeps the cell's miners in ascending
//     initial order (sorted once per cell) and merges the d credited
//     miners' wealths, sorted, into it: O(m + d log d).  The ascending
//     sequence holds the same values as the sorted vector, so every metric
//     is bit-identical to MeasurePopulation over initial_stake(i) +
//     income(i).

#ifndef FAIRCHAIN_CORE_POPULATION_HPP_
#define FAIRCHAIN_CORE_POPULATION_HPP_

#include <cstddef>
#include <vector>

#include "protocol/stake_state.hpp"

namespace fairchain::core {

/// One replication's concentration metrics at one checkpoint.
struct PopulationSnapshot {
  double gini = 0.0;
  double hhi = 0.0;
  /// Nakamoto coefficient; kept as double so metric matrices and CSV
  /// columns stay homogeneous (it is always an integer value).
  double nakamoto = 0.0;
  double top_decile_share = 0.0;
};

/// Number of scalar metrics a PopulationSnapshot carries — the stride of
/// the kernel's per-replication population matrices.
inline constexpr std::size_t kPopulationMetricCount = 4;

/// Number of miners in the "top decile" of a population of `miners`:
/// ⌈miners / 10⌉, never 0.
std::size_t TopDecileCount(std::size_t miners);

/// Measures `wealth` (all entries finite and >= 0, positive total; one
/// sort, O(m log m)).  `scratch` is overwritten and may be reused across
/// calls to avoid per-call allocation.  Throws std::invalid_argument on an
/// empty vector, a negative or non-finite entry (naming its index), or a
/// zero total.
PopulationSnapshot MeasurePopulation(const std::vector<double>& wealth,
                                     std::vector<double>* scratch);

/// Measures the wealth vector of a game state without sorting all m
/// wealths: the cell's ascending initial order is built once, and each
/// Measure merges only the miners credited since the state's Reset into
/// it.  Results equal MeasurePopulation over initial_stake(i) + income(i)
/// bit for bit.
class PopulationMeter {
 public:
  /// Sorts `state`'s miners by initial stake (O(m log m), the only
  /// allocating call) and sizes every merge buffer to m, so Measure never
  /// allocates however many miners a replication credits.
  explicit PopulationMeter(const protocol::StakeState& state);

  /// The metrics of `state`'s current wealth vector, O(m + d log d) for the
  /// d credited miners; when all m are credited the walk of the initial
  /// order is skipped (one sort of m, as MeasurePopulation).  `state` must
  /// have the initial stakes of the state the meter was built from.
  /// Throws std::invalid_argument on a miner-count mismatch or a credited
  /// wealth that overflowed to infinity (naming the miner).
  PopulationSnapshot Measure(const protocol::StakeState& state);

 private:
  std::vector<std::size_t> order_;  ///< miners by ascending initial stake
  std::vector<double> credited_;    ///< credited wealths, sorted per call
  std::vector<double> ascending_;   ///< the merged wealth vector
};

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_POPULATION_HPP_
