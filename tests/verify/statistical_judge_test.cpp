// Tests for the StatisticalJudge: each check's accept/reject behaviour on
// synthetic samples with known law, the Bonferroni correction, and the
// structural sanity net.

#include "verify/statistical_judge.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/monte_carlo.hpp"
#include "math/distributions.hpp"
#include "math/special.hpp"
#include "support/rng.hpp"

namespace fairchain::verify {
namespace {

sim::CampaignCell TestCell() {
  sim::CampaignCell cell;
  cell.protocol = "pow";
  cell.a = 0.2;
  cell.w = 0.01;
  return cell;
}

// Builds a one-checkpoint SimulationResult from raw final-λ samples via the
// engine's own reduction, so summary statistics are computed exactly as in
// a real campaign.
core::SimulationResult ResultFromSamples(const std::vector<double>& lambdas,
                                         std::uint64_t steps,
                                         double a = 0.2) {
  core::SimulationConfig config;
  config.steps = steps;
  config.replications = lambdas.size();
  config.checkpoints = {steps};
  return core::ReduceToResult("test", {a, 1.0 - a}, config, {0.1, 0.1},
                              lambdas, {});
}

// Binomial(n, p)/n samples — the exact law of the PoW reward fraction.
std::vector<double> BinomialLambdas(std::uint64_t n, double p,
                                    std::size_t reps, std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<double> lambdas(reps);
  for (double& lambda : lambdas) {
    lambda = static_cast<double>(math::SampleBinomial(rng, n, p)) /
             static_cast<double>(n);
  }
  return lambdas;
}

std::vector<double> BinomialPmf(std::uint64_t n, double p) {
  std::vector<double> pmf(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) {
    pmf[static_cast<std::size_t>(k)] = math::BinomialPmf(n, k, p);
  }
  return pmf;
}

const CheckResult* FindCheck(const CellVerdict& verdict,
                             const std::string& name) {
  for (const CheckResult& check : verdict.checks) {
    if (check.check == name) return &check;
  }
  return nullptr;
}

TEST(JudgeConfigTest, BonferroniThreshold) {
  JudgeConfig config;
  config.family_alpha = 1e-2;
  config.comparisons = 50;
  EXPECT_DOUBLE_EQ(config.Threshold(), 2e-4);
  config.comparisons = 0;  // degenerate: no correction
  EXPECT_DOUBLE_EQ(config.Threshold(), 1e-2);
}

TEST(JudgeConfigTest, ValidateRejectsBadKnobs) {
  JudgeConfig config;
  config.family_alpha = 0.0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = {};
  config.deterministic_tolerance = 0.0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = {};
  config.min_expected_cell = -1.0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(StatisticalJudgeTest, TrueLawPassesEveryCheck) {
  const std::uint64_t n = 120;
  const double a = 0.2;
  const auto lambdas = BinomialLambdas(n, a, 2000, 7);
  OraclePrediction prediction;
  prediction.oracle = "test";
  prediction.mean = a;
  prediction.variance = a * (1.0 - a) / static_cast<double>(n);
  prediction.pmf = BinomialPmf(n, a);

  const StatisticalJudge judge;
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, n, a));
  EXPECT_TRUE(verdict.passed) << verdict.checks.front().detail;
  EXPECT_EQ(verdict.Failures(), 0u);
  ASSERT_NE(FindCheck(verdict, "sanity"), nullptr);
  ASSERT_NE(FindCheck(verdict, "mean"), nullptr);
  ASSERT_NE(FindCheck(verdict, "variance"), nullptr);
  ASSERT_NE(FindCheck(verdict, "distribution"), nullptr);
}

TEST(StatisticalJudgeTest, ShiftedMeanIsRejected) {
  const std::uint64_t n = 120;
  const auto lambdas = BinomialLambdas(n, 0.2, 2000, 8);
  OraclePrediction prediction;
  prediction.mean = 0.25;  // wrong by ~6 standard errors

  const StatisticalJudge judge;
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, n));
  const CheckResult* mean = FindCheck(verdict, "mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_FALSE(mean->passed);
  EXPECT_FALSE(mean->detail.empty());
  EXPECT_FALSE(verdict.passed);
}

TEST(StatisticalJudgeTest, WrongDistributionIsRejected) {
  const std::uint64_t n = 120;
  const auto lambdas = BinomialLambdas(n, 0.2, 4000, 9);
  OraclePrediction prediction;
  prediction.pmf = BinomialPmf(n, 0.3);  // wrong success probability

  const StatisticalJudge judge;
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, n));
  const CheckResult* distribution = FindCheck(verdict, "distribution");
  ASSERT_NE(distribution, nullptr);
  EXPECT_FALSE(distribution->passed);
}

TEST(StatisticalJudgeTest, OffLatticeSamplesFailStructurally) {
  const std::uint64_t n = 120;
  std::vector<double> lambdas(100, 0.2);
  lambdas[50] = 0.2004;  // not a multiple of 1/120
  OraclePrediction prediction;
  prediction.pmf = BinomialPmf(n, 0.2);

  const StatisticalJudge judge;
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, n));
  const CheckResult* distribution = FindCheck(verdict, "distribution");
  ASSERT_NE(distribution, nullptr);
  EXPECT_FALSE(distribution->passed);
  EXPECT_TRUE(std::isnan(distribution->p_value));
  EXPECT_NE(distribution->detail.find("lattice"), std::string::npos);
}

TEST(StatisticalJudgeTest, DeterministicTrajectoryToleranceGate) {
  std::vector<double> lambdas(50, 0.2);
  OraclePrediction prediction;
  prediction.deterministic_lambda = 0.2;
  const StatisticalJudge judge;
  EXPECT_TRUE(judge
                  .Judge(TestCell(), prediction,
                         ResultFromSamples(lambdas, 100))
                  .passed);

  lambdas[10] = 0.2001;  // far beyond the 1e-9 tolerance
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, 100));
  const CheckResult* deterministic = FindCheck(verdict, "deterministic");
  ASSERT_NE(deterministic, nullptr);
  EXPECT_FALSE(deterministic->passed);
}

TEST(StatisticalJudgeTest, DriftCheckIsOneSided) {
  const std::uint64_t n = 120;
  // True mean 0.18, claim "mean <= 0.2": must pass comfortably.
  const auto below = BinomialLambdas(n, 0.18, 2000, 10);
  OraclePrediction prediction;
  prediction.mean_upper = 0.2;
  const StatisticalJudge judge;
  EXPECT_TRUE(
      judge.Judge(TestCell(), prediction, ResultFromSamples(below, n))
          .passed);
  // True mean 0.25 violates the claim.
  const auto above = BinomialLambdas(n, 0.25, 2000, 11);
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(above, n));
  const CheckResult* drift = FindCheck(verdict, "mean-drift");
  ASSERT_NE(drift, nullptr);
  EXPECT_FALSE(drift->passed);
}

TEST(StatisticalJudgeTest, UnfairExactUsesCompositeBoundaryInterval) {
  // 30 of 100 samples unfair; the composite null [0.25, 0.35] contains the
  // observed proportion, so the check must pass with p = 1 even though the
  // endpoints alone would be borderline.
  std::vector<double> lambdas;
  for (int i = 0; i < 70; ++i) lambdas.push_back(0.2);   // inside fair area
  for (int i = 0; i < 30; ++i) lambdas.push_back(0.5);   // outside
  OraclePrediction prediction;
  prediction.unfair_probability = 0.25;
  prediction.unfair_boundary_mass = 0.10;

  const StatisticalJudge judge;
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, 10));
  const CheckResult* unfair = FindCheck(verdict, "unfair-exact");
  ASSERT_NE(unfair, nullptr);
  EXPECT_TRUE(unfair->passed);
  EXPECT_DOUBLE_EQ(unfair->p_value, 1.0);
  EXPECT_DOUBLE_EQ(unfair->statistic, 0.3);
}

TEST(StatisticalJudgeTest, UnfairExactRejectsGrossMismatch) {
  std::vector<double> lambdas;
  for (int i = 0; i < 50; ++i) lambdas.push_back(0.2);
  for (int i = 0; i < 50; ++i) lambdas.push_back(0.5);
  OraclePrediction prediction;
  prediction.unfair_probability = 0.05;  // truth is ~0.5

  const StatisticalJudge judge;
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, 10));
  const CheckResult* unfair = FindCheck(verdict, "unfair-exact");
  ASSERT_NE(unfair, nullptr);
  EXPECT_FALSE(unfair->passed);
}

TEST(StatisticalJudgeTest, UnfairBoundPassesWhenBoundIsLoose) {
  std::vector<double> lambdas(100, 0.5);  // 100% unfair
  OraclePrediction prediction;
  prediction.unfair_upper_bound = 1.5;  // vacuous bound (> 1)
  const StatisticalJudge judge;
  EXPECT_TRUE(
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, 10))
          .passed);

  prediction.unfair_upper_bound = 0.01;  // sharp bound, grossly violated
  const CellVerdict verdict =
      judge.Judge(TestCell(), prediction, ResultFromSamples(lambdas, 10));
  const CheckResult* bound = FindCheck(verdict, "unfair-bound");
  ASSERT_NE(bound, nullptr);
  EXPECT_FALSE(bound->passed);
}

TEST(StatisticalJudgeTest, SanityCatchesOutOfRangeLambda) {
  std::vector<double> lambdas(50, 0.2);
  lambdas[7] = 1.5;
  const StatisticalJudge judge;
  const CellVerdict verdict = judge.Judge(TestCell(), OraclePrediction{},
                                          ResultFromSamples(lambdas, 100));
  const CheckResult* sanity = FindCheck(verdict, "sanity");
  ASSERT_NE(sanity, nullptr);
  EXPECT_FALSE(sanity->passed);
  EXPECT_NE(sanity->detail.find("outside [0, 1]"), std::string::npos);
}

TEST(StatisticalJudgeTest, SanityCatchesImpossiblePopulationMetrics) {
  // NaN metrics (population tracking off) must pass; definitional-range
  // violations must fail structurally.
  const std::vector<double> lambdas(50, 0.2);
  const StatisticalJudge judge;
  {
    const core::SimulationResult result = ResultFromSamples(lambdas, 100);
    const CellVerdict verdict =
        judge.Judge(TestCell(), OraclePrediction{}, result);
    const CheckResult* sanity = FindCheck(verdict, "sanity");
    ASSERT_NE(sanity, nullptr);
    EXPECT_TRUE(sanity->passed);  // NaN = disabled, not a violation
  }
  {
    core::SimulationResult result = ResultFromSamples(lambdas, 100);
    result.checkpoints.back().gini = 1.2;  // impossible
    result.checkpoints.back().hhi = 0.6;
    result.checkpoints.back().nakamoto = 1.0;
    result.checkpoints.back().top_decile_share = 0.9;
    const CellVerdict verdict =
        judge.Judge(TestCell(), OraclePrediction{}, result);
    const CheckResult* sanity = FindCheck(verdict, "sanity");
    ASSERT_NE(sanity, nullptr);
    EXPECT_FALSE(sanity->passed);
    EXPECT_NE(sanity->detail.find("gini"), std::string::npos);
  }
  {
    core::SimulationResult result = ResultFromSamples(lambdas, 100);
    result.checkpoints.back().gini = 0.3;
    result.checkpoints.back().hhi = 0.6;
    result.checkpoints.back().nakamoto = 99.0;  // > miner count (2)
    result.checkpoints.back().top_decile_share = 0.9;
    const CellVerdict verdict =
        judge.Judge(TestCell(), OraclePrediction{}, result);
    const CheckResult* sanity = FindCheck(verdict, "sanity");
    ASSERT_NE(sanity, nullptr);
    EXPECT_FALSE(sanity->passed);
    EXPECT_NE(sanity->detail.find("nakamoto"), std::string::npos);
  }
}

TEST(StatisticalJudgeTest, EveryCellGetsASanityVerdict) {
  // No oracle claims at all: the verdict still contains the sanity check.
  const std::vector<double> lambdas(50, 0.2);
  const StatisticalJudge judge;
  const CellVerdict verdict = judge.Judge(TestCell(), OraclePrediction{},
                                          ResultFromSamples(lambdas, 100));
  EXPECT_EQ(verdict.checks.size(), 1u);
  EXPECT_EQ(verdict.checks.front().check, "sanity");
  EXPECT_TRUE(verdict.passed);
}

TEST(StatisticalJudgeTest, BinomialTwoSidedPEdgeCases) {
  EXPECT_DOUBLE_EQ(StatisticalJudge::BinomialTwoSidedP(100, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(StatisticalJudge::BinomialTwoSidedP(100, 1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(StatisticalJudge::BinomialTwoSidedP(100, 100, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(StatisticalJudge::BinomialTwoSidedP(100, 99, 1.0), 0.0);
  // A typical observation under the null gets a comfortable p-value.
  EXPECT_GT(StatisticalJudge::BinomialTwoSidedP(100, 50, 0.5), 0.5);
  // A 5-sigma outcome gets a tiny one.
  EXPECT_LT(StatisticalJudge::BinomialTwoSidedP(100, 80, 0.5), 1e-8);
}

TEST(StatisticalJudgeTest, NormalTwoSidedPKnownValues) {
  EXPECT_NEAR(StatisticalJudge::NormalTwoSidedP(0.0), 1.0, 1e-12);
  EXPECT_NEAR(StatisticalJudge::NormalTwoSidedP(1.959964), 0.05, 1e-4);
  EXPECT_NEAR(StatisticalJudge::NormalTwoSidedP(-2.575829), 0.01, 1e-4);
}

TEST(StatisticalJudgeTest, VerdictsAreDeterministic) {
  const std::uint64_t n = 120;
  const auto lambdas = BinomialLambdas(n, 0.2, 500, 12);
  OraclePrediction prediction;
  prediction.mean = 0.2;
  prediction.pmf = BinomialPmf(n, 0.2);
  const StatisticalJudge judge;
  const auto result = ResultFromSamples(lambdas, n);
  const CellVerdict first = judge.Judge(TestCell(), prediction, result);
  const CellVerdict second = judge.Judge(TestCell(), prediction, result);
  ASSERT_EQ(first.checks.size(), second.checks.size());
  for (std::size_t i = 0; i < first.checks.size(); ++i) {
    EXPECT_EQ(first.checks[i].passed, second.checks[i].passed);
    if (std::isnan(first.checks[i].p_value)) {
      EXPECT_TRUE(std::isnan(second.checks[i].p_value));
    } else {
      EXPECT_DOUBLE_EQ(first.checks[i].p_value, second.checks[i].p_value);
    }
  }
}

}  // namespace
}  // namespace fairchain::verify
