// VerificationPlan: pairs every cell of a scenario's grid with the analytic
// oracle that understands it, and VerifyCampaign: run the campaign, judge
// every cell, stream verdict rows.
//
// A plan is built from any ScenarioSpec — in particular every
// ScenarioRegistry built-in — so each registered scenario is a
// self-checking experiment: `fairchain verify <name>` (or the
// oracle_conformance CTest suite) runs the grid through the Monte Carlo
// engine and accepts it only when every cell's replication-level samples
// are consistent with the closed forms.  The plan also carries the
// Bonferroni denominator (total stochastic comparisons across the grid) so
// the judge's family-wise false-alarm rate holds per campaign, not per
// cell.

#ifndef FAIRCHAIN_VERIFY_VERIFICATION_PLAN_HPP_
#define FAIRCHAIN_VERIFY_VERIFICATION_PLAN_HPP_

#include <cstddef>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/scenario_spec.hpp"
#include "verify/oracle.hpp"
#include "verify/statistical_judge.hpp"
#include "verify/verdict_sink.hpp"

namespace fairchain::verify {

/// One grid cell with its matched oracle and precomputed prediction.
struct PlannedCell {
  sim::CampaignCell cell;
  const Oracle* oracle = nullptr;  ///< null = sanity checks only
  OraclePrediction prediction;     ///< empty claims when oracle is null
};

/// The verification plan of one scenario.
class VerificationPlan {
 public:
  /// Builds the plan for `spec` using `oracles` (first AppliesTo match
  /// wins; DefaultOracles() when omitted).  Validates the spec and
  /// precomputes every cell's prediction.
  explicit VerificationPlan(sim::ScenarioSpec spec,
                            const std::vector<const Oracle*>* oracles =
                                nullptr);

  /// Plan for a registered scenario (ScenarioRegistry::BuiltIn lookup).
  static VerificationPlan ForScenario(const std::string& name);

  const sim::ScenarioSpec& spec() const { return spec_; }
  const std::vector<PlannedCell>& cells() const { return cells_; }

  /// Number of cells with a matched oracle.
  std::size_t OracleCoverage() const;

  /// Total p-value-producing comparisons across the grid — the Bonferroni
  /// denominator VerifyCampaign feeds into the judge.
  std::size_t StochasticComparisons() const;

 private:
  sim::ScenarioSpec spec_;
  std::vector<PlannedCell> cells_;
};

/// Execution knobs for VerifyCampaign.
struct VerificationOptions {
  /// Threads / chunking / execution backend for the runner.  Verdicts are
  /// pure functions of the seeded campaign output, so they are
  /// byte-identical across backends and thread counts.
  sim::CampaignOptions campaign;
  /// Judge knobs; `comparisons` is overwritten from the plan.
  JudgeConfig judge;
};

/// Aggregate outcome of one verified campaign.
struct VerificationReport {
  std::string scenario;
  std::size_t cells = 0;
  std::size_t checks = 0;
  std::size_t failures = 0;
  double threshold = 0.0;  ///< Bonferroni-corrected p-value threshold used
  std::vector<CellVerdict> verdicts;  ///< grid order
  bool passed = true;
};

/// Runs the plan's campaign through the shared-pool CampaignRunner
/// (optionally streaming ordinary campaign rows to `row_sinks`), judges
/// every cell against its prediction, streams one VerdictRow per check to
/// `verdict_sinks` in ascending (cell, check) order, and returns the
/// report.  Deterministic for a fixed spec seed at any thread count.
VerificationReport VerifyCampaign(
    const VerificationPlan& plan, const VerificationOptions& options,
    const std::vector<sim::RowSink<VerdictRow>*>& verdict_sinks,
    const std::vector<sim::RowSink<sim::CampaignRow>*>& row_sinks = {});

}  // namespace fairchain::verify

#endif  // FAIRCHAIN_VERIFY_VERIFICATION_PLAN_HPP_
