#include "verify/verification_plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "sim/scenario_registry.hpp"

namespace fairchain::verify {

VerificationPlan::VerificationPlan(
    sim::ScenarioSpec spec, const std::vector<const Oracle*>* oracles)
    : spec_(std::move(spec)) {
  spec_.Validate();
  // The statistical judge consumes replication-level final-λ samples;
  // honouring `final_lambdas=off` here would turn every cell into a
  // misleading "no replication-level samples" sanity failure, so the plan
  // always retains them (the key exists for campaign memory savings, which
  // do not apply to verification runs).
  spec_.keep_final_lambdas = true;
  const std::vector<const Oracle*>& catalogue =
      oracles != nullptr ? *oracles : DefaultOracles();
  const std::vector<sim::CampaignCell> cells = spec_.ExpandCells();
  cells_.reserve(cells.size());
  for (const sim::CampaignCell& cell : cells) {
    PlannedCell planned;
    planned.cell = cell;
    for (const Oracle* oracle : catalogue) {
      if (oracle->AppliesTo(cell)) {
        planned.oracle = oracle;
        planned.prediction =
            oracle->Predict(cell, spec_.fairness, spec_.steps);
        planned.prediction.oracle = oracle->name();
        break;
      }
    }
    cells_.push_back(std::move(planned));
  }
}

VerificationPlan VerificationPlan::ForScenario(const std::string& name) {
  return VerificationPlan(sim::ScenarioRegistry::BuiltIn().Get(name));
}

std::size_t VerificationPlan::OracleCoverage() const {
  std::size_t covered = 0;
  for (const PlannedCell& planned : cells_) {
    if (planned.oracle != nullptr) ++covered;
  }
  return covered;
}

std::size_t VerificationPlan::StochasticComparisons() const {
  std::size_t comparisons = 0;
  for (const PlannedCell& planned : cells_) {
    comparisons += planned.prediction.StochasticComparisons();
  }
  return comparisons;
}

VerificationReport VerifyCampaign(
    const VerificationPlan& plan, const VerificationOptions& options,
    const std::vector<sim::RowSink<VerdictRow>*>& verdict_sinks,
    const std::vector<sim::RowSink<sim::CampaignRow>*>& row_sinks) {
  JudgeConfig judge_config = options.judge;
  judge_config.comparisons = plan.StochasticComparisons();
  const StatisticalJudge judge(judge_config);

  const sim::CampaignRunner runner(options.campaign);
  const std::vector<sim::CellOutcome> outcomes =
      runner.Run(plan.spec(), row_sinks);

  VerificationReport report;
  report.scenario = plan.spec().name;
  report.threshold = judge_config.Threshold();

  for (sim::RowSink<VerdictRow>* sink : verdict_sinks) {
    sink->Begin(plan.spec());
  }

  // Cross-cell physics the per-cell judge cannot see: within a group of
  // forkrace cells that differ only in propagation delay, the
  // final-checkpoint orphan rate must be non-decreasing in delay (a wider
  // window can only contest more blocks).  Each adjacent-pair comparison
  // is attached to the higher-delay cell's verdict as a structural check.
  std::map<std::size_t, std::vector<CheckResult>> cross_checks;
  {
    // (a, gamma) -> cell indices of forkrace cells, later sorted by delay.
    std::map<std::pair<double, double>, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const sim::CampaignCell& cell = plan.cells()[i].cell;
      if (cell.chain_dynamics && cell.protocol == "forkrace" &&
          !outcomes[i].result.checkpoints.empty()) {
        groups[{cell.a, cell.gamma}].push_back(i);
      }
    }
    // Sampling slack: the compared values are means over replications, so
    // their noise is far below this at any campaign scale worth verifying.
    constexpr double kMonotoneSlack = 0.01;
    for (auto& [key, members] : groups) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end(),
                [&](std::size_t lhs, std::size_t rhs) {
                  return plan.cells()[lhs].cell.delay <
                         plan.cells()[rhs].cell.delay;
                });
      for (std::size_t j = 1; j < members.size(); ++j) {
        const std::size_t prev = members[j - 1];
        const std::size_t next = members[j];
        const double low =
            outcomes[prev].result.checkpoints.back().orphan_rate;
        const double high =
            outcomes[next].result.checkpoints.back().orphan_rate;
        CheckResult check;
        check.check = "orphan-monotone-delay";
        check.statistic = high - low;
        check.passed = !(high < low - kMonotoneSlack);
        if (!check.passed) {
          check.detail =
              "orphan rate " + sim::FormatDouble(high) + " at delay " +
              sim::FormatDouble(plan.cells()[next].cell.delay) +
              " fell below " + sim::FormatDouble(low) + " at delay " +
              sim::FormatDouble(plan.cells()[prev].cell.delay);
        }
        cross_checks[next].push_back(std::move(check));
      }
    }
  }

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const PlannedCell& planned = plan.cells()[i];
    CellVerdict verdict =
        judge.Judge(planned.cell, planned.prediction, outcomes[i].result);
    if (const auto extra = cross_checks.find(i); extra != cross_checks.end()) {
      for (CheckResult& check : extra->second) {
        if (!check.passed) verdict.passed = false;
        verdict.checks.push_back(std::move(check));
      }
    }
    VerdictRow row;
    row.scenario = plan.spec().name;
    row.cell = planned.cell;
    row.oracle = verdict.oracle.empty() ? "none" : verdict.oracle;
    row.threshold = report.threshold;
    for (const CheckResult& check : verdict.checks) {
      row.result = check;
      for (sim::RowSink<VerdictRow>* sink : verdict_sinks) sink->WriteRow(row);
    }
    ++report.cells;
    report.checks += verdict.checks.size();
    report.failures += verdict.Failures();
    if (!verdict.passed) report.passed = false;
    report.verdicts.push_back(std::move(verdict));
  }

  for (sim::RowSink<VerdictRow>* sink : verdict_sinks) sink->End();
  return report;
}

}  // namespace fairchain::verify
