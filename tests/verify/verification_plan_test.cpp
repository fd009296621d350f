// Tests for VerificationPlan + VerifyCampaign: oracle coverage of every
// registered scenario, Bonferroni accounting, end-to-end verdict streaming,
// and the negative control proving the harness catches a wrong oracle.

#include "verify/verification_plan.hpp"

#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "sim/scenario_registry.hpp"

namespace fairchain::verify {
namespace {

sim::ScenarioSpec TinySpec() {
  sim::ScenarioSpec spec;
  spec.name = "plan-test";
  spec.protocols = {"pow", "mlpos"};
  spec.allocations = {0.2, 0.4};
  spec.steps = 60;
  spec.replications = 400;
  spec.checkpoint_count = 5;
  spec.seed = 99;
  return spec;
}

TEST(VerificationPlanTest, PairsEveryCellAndPrecomputesPredictions) {
  const VerificationPlan plan(TinySpec());
  ASSERT_EQ(plan.cells().size(), 4u);
  for (const PlannedCell& planned : plan.cells()) {
    ASSERT_NE(planned.oracle, nullptr) << planned.cell.Label();
    EXPECT_EQ(planned.prediction.oracle, planned.oracle->name());
    EXPECT_FALSE(planned.prediction.pmf.empty());
  }
  EXPECT_EQ(plan.OracleCoverage(), 4u);
  // 4 cells x (mean, variance, distribution, unfair-exact); the Hoeffding /
  // Azuma bounds are vacuous (>= 1) at n = 60 and are not counted.
  EXPECT_EQ(plan.StochasticComparisons(), 16u);
}

TEST(VerificationPlanTest, EveryBuiltInScenarioHasPinnedOracleCoverage) {
  // Cells without an exact closed form (multi-miner SL-PoS, withheld
  // compounding protocols) still get sanity verdicts; everything else must
  // be oracle-covered.  Pinned so a new scenario or oracle consciously
  // updates the map.
  const std::map<std::string, std::pair<std::size_t, std::size_t>> expected =
      {{"fig1", {3, 3}},         {"fig2", {4, 4}},
       {"fig3", {16, 16}},       {"fig4a", {5, 5}},
       {"fig4b", {4, 4}},        {"fig5", {12, 12}},
       {"fig5d", {6, 6}},        {"fig6", {1, 2}},
       {"table1", {16, 20}},     {"whale-sweep", {18, 24}},
       {"multi-whale", {6, 9}},  {"withhold-grid", {2, 10}},
       {"committee", {9, 9}},    {"pareto-population", {12, 12}},
       {"large-population-sweep", {8, 8}},
       // Chain-dynamics family: every selfish cell sits at alpha <= 0.5
       // (the closed form's domain) and every forkrace cell has a renewal
       // form, so coverage is total.
       {"selfish-grid", {9, 9}},
       {"propagation-delay-sweep", {5, 5}},
       {"orphan-hashrate-sweep", {6, 6}},
       // Mixed-family scheduler workload: cpos + pow + selfish at one
       // allocation each, all oracle-covered.
       {"hetero-cost-mix", {3, 3}}};
  const sim::ScenarioRegistry& registry = sim::ScenarioRegistry::BuiltIn();
  ASSERT_EQ(registry.size(), expected.size());
  for (const std::string& name : registry.Names()) {
    const VerificationPlan plan = VerificationPlan::ForScenario(name);
    const auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << name;
    EXPECT_EQ(plan.OracleCoverage(), it->second.first) << name;
    EXPECT_EQ(plan.cells().size(), it->second.second) << name;
    EXPECT_GT(plan.StochasticComparisons(), 0u) << name;
  }
}

TEST(VerificationPlanTest, ForScenarioUnknownNameThrows) {
  EXPECT_THROW(VerificationPlan::ForScenario("nope"), std::invalid_argument);
}

TEST(VerifyCampaignTest, StreamsOrderedVerdictRowsAndPasses) {
  const VerificationPlan plan(TinySpec());
  VerificationOptions options;
  options.campaign.threads = 2;

  std::ostringstream csv;
  sim::CsvSink<VerdictRow> sink(csv);
  std::vector<sim::RowSink<VerdictRow>*> sinks = {&sink};
  const VerificationReport report = VerifyCampaign(plan, options, sinks);

  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.cells, 4u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.verdicts.size(), 4u);
  EXPECT_DOUBLE_EQ(report.threshold, 1e-3 / 16.0);

  // Rows stream in ascending cell order with one row per check.
  std::istringstream lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, sim::CsvSink<VerdictRow>::Header());
  std::size_t rows = 0;
  std::size_t previous_cell = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const std::size_t first_comma = line.find(',');
    const std::size_t second_comma = line.find(',', first_comma + 1);
    const std::size_t cell = std::stoul(
        line.substr(first_comma + 1, second_comma - first_comma - 1));
    EXPECT_GE(cell, previous_cell);
    previous_cell = cell;
  }
  EXPECT_EQ(rows, report.checks);
}

TEST(VerifyCampaignTest, ByteIdenticalVerdictsAcrossThreadCounts) {
  const VerificationPlan plan(TinySpec());
  std::string outputs[2];
  const unsigned thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    VerificationOptions options;
    options.campaign.threads = thread_counts[i];
    std::ostringstream csv;
    sim::CsvSink<VerdictRow> sink(csv);
    std::vector<sim::RowSink<VerdictRow>*> sinks = {&sink};
    VerifyCampaign(plan, options, sinks);
    outputs[i] = csv.str();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

// The judge consumes replication-level final-λ samples, so the plan must
// override `final_lambdas=off` (otherwise every cell would "fail" with a
// misleading no-samples sanity verdict instead of being verified).
TEST(VerificationPlanTest, AlwaysRetainsFinalLambdasForTheJudge) {
  sim::ScenarioSpec spec = TinySpec();
  spec.keep_final_lambdas = false;
  const VerificationPlan plan(spec);
  EXPECT_TRUE(plan.spec().keep_final_lambdas);
  VerificationOptions options;
  options.campaign.threads = 1;
  const VerificationReport report = VerifyCampaign(plan, options, {});
  EXPECT_TRUE(report.passed);
  EXPECT_GT(report.checks, 0u);
}

// Same contract across execution backends: VerifyCampaign runs the
// campaign through whatever backend CampaignOptions injects, and verdict
// streams must be byte-identical between the serial reference and any
// thread-pool size.
TEST(VerifyCampaignTest, ByteIdenticalVerdictsAcrossBackends) {
  const VerificationPlan plan(TinySpec());
  const core::SerialBackend serial;
  const core::ThreadPoolBackend pool(4);
  const core::ExecutionBackend* backends[2] = {&serial, &pool};
  std::string outputs[2];
  for (int i = 0; i < 2; ++i) {
    VerificationOptions options;
    options.campaign.backend = backends[i];
    std::ostringstream csv;
    sim::CsvSink<VerdictRow> sink(csv);
    std::vector<sim::RowSink<VerdictRow>*> sinks = {&sink};
    const VerificationReport report = VerifyCampaign(plan, options, sinks);
    EXPECT_TRUE(report.passed);
    outputs[i] = csv.str();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

// Negative control: a deliberately wrong oracle must be caught, proving the
// harness can actually fail.
class WrongMeanOracle : public Oracle {
 public:
  std::string name() const override { return "wrong-mean"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override {
    return cell.protocol == "pow";
  }
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override {
    (void)fairness;
    (void)steps;
    OraclePrediction prediction;
    prediction.mean = TrackedInitialShare(cell) + 0.2;  // grossly wrong
    return prediction;
  }
};

TEST(VerifyCampaignTest, WrongOracleIsRejected) {
  static const WrongMeanOracle wrong;
  const std::vector<const Oracle*> catalogue = {&wrong};
  sim::ScenarioSpec spec = TinySpec();
  spec.protocols = {"pow"};
  const VerificationPlan plan(spec, &catalogue);
  VerificationOptions options;
  const std::vector<sim::RowSink<VerdictRow>*> no_sinks;
  const VerificationReport report = VerifyCampaign(plan, options, no_sinks);
  EXPECT_FALSE(report.passed);
  EXPECT_GE(report.failures, plan.cells().size());
}

TEST(VerifyCampaignTest, ForwardsCampaignRowsToRowSinks) {
  const VerificationPlan plan(TinySpec());
  VerificationOptions options;
  std::ostringstream campaign_csv;
  sim::CsvSink<sim::CampaignRow> row_sink(campaign_csv);
  const std::vector<sim::RowSink<VerdictRow>*> no_sinks;
  std::vector<sim::RowSink<sim::CampaignRow>*> row_sinks = {&row_sink};
  VerifyCampaign(plan, options, no_sinks, row_sinks);
  // 4 cells x 5 checkpoints + header.
  std::istringstream lines(campaign_csv.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 1u + 4u * 5u);
}

}  // namespace
}  // namespace fairchain::verify
