// Oracle conformance: every registered scenario, run end to end through the
// campaign scheduler at reduced replication counts, must be accepted by its
// analytic oracles.
//
// This is the regression net the ROADMAP's performance work relies on: any
// refactor of the Monte Carlo hot path, the RNG splitting, the protocol
// Step functions, or the campaign scheduler that changes the *law* of the
// simulated reward fractions — not just their speed — fails here, because
// the closed forms (Binomial, Beta-Binomial/Pólya, martingale means,
// deterministic trajectories) are derived without running the engine.
//
// Scale: replications and steps are reduced so the full registry verifies
// in seconds; the oracles are exact at every n, so reduced horizons lose
// statistical power but never validity.  All seeds are the specs' built-in
// defaults — fixed, so verdicts are byte-stable across runs and thread
// counts.

#include <cstdio>

#include <gtest/gtest.h>

#include "sim/scenario_registry.hpp"
#include "verify/verification_plan.hpp"

namespace fairchain {
namespace {

constexpr std::uint64_t kReducedReplications = 300;
constexpr std::uint64_t kReducedSteps = 240;

sim::ScenarioSpec ReducedSpec(const std::string& name) {
  sim::ScenarioSpec spec = sim::ScenarioRegistry::BuiltIn().Get(name);
  spec.replications = kReducedReplications;
  spec.steps = std::min(spec.steps, kReducedSteps);
  return spec;
}

verify::VerificationReport VerifyScenario(const std::string& name,
                                          unsigned threads = 0) {
  const verify::VerificationPlan plan(ReducedSpec(name));
  verify::VerificationOptions options;
  options.campaign.threads = threads;
  const std::vector<sim::RowSink<verify::VerdictRow>*> no_sinks;
  return verify::VerifyCampaign(plan, options, no_sinks);
}

void ExpectAllChecksPass(const verify::VerificationReport& report) {
  EXPECT_TRUE(report.passed)
      << report.scenario << ": " << report.failures << "/" << report.checks
      << " checks failed";
  for (const verify::CellVerdict& verdict : report.verdicts) {
    for (const verify::CheckResult& check : verdict.checks) {
      EXPECT_TRUE(check.passed)
          << report.scenario << " cell " << verdict.cell.index << " ("
          << verdict.cell.Label() << ") oracle=" << verdict.oracle
          << " check=" << check.check << ": " << check.detail;
    }
  }
}

class OracleConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleConformance, ScenarioMatchesItsOracles) {
  ExpectAllChecksPass(VerifyScenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, OracleConformance,
    ::testing::ValuesIn(sim::ScenarioRegistry::BuiltIn().Names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(OracleConformanceTest, EveryCellOfEveryScenarioGetsAVerdict) {
  for (const std::string& name : sim::ScenarioRegistry::BuiltIn().Names()) {
    const verify::VerificationPlan plan(ReducedSpec(name));
    const verify::VerificationReport report = VerifyScenario(name);
    EXPECT_EQ(report.cells, plan.cells().size()) << name;
    for (const verify::CellVerdict& verdict : report.verdicts) {
      EXPECT_FALSE(verdict.checks.empty())
          << name << " cell " << verdict.cell.index;
    }
  }
}

TEST(OracleConformanceTest, VerdictsIdenticalAcrossThreadCounts) {
  const verify::VerificationReport single = VerifyScenario("fig3", 1);
  const verify::VerificationReport pooled = VerifyScenario("fig3", 5);
  ASSERT_EQ(single.checks, pooled.checks);
  ASSERT_EQ(single.verdicts.size(), pooled.verdicts.size());
  for (std::size_t i = 0; i < single.verdicts.size(); ++i) {
    const auto& a = single.verdicts[i].checks;
    const auto& b = pooled.verdicts[i].checks;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].check, b[j].check);
      EXPECT_EQ(a[j].passed, b[j].passed);
      EXPECT_DOUBLE_EQ(a[j].statistic, b[j].statistic);
    }
  }
}

}  // namespace
}  // namespace fairchain
