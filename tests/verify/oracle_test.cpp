// Tests for the analytic oracles: applicability matrix, closed-form
// moments, pmf consistency, and the cross-links to core/bounds.

#include "verify/oracle.hpp"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/equitability.hpp"
#include "core/selfish_mining.hpp"
#include "math/special.hpp"

namespace fairchain::verify {
namespace {

sim::CampaignCell MakeCell(const std::string& protocol, double a = 0.2,
                           double w = 0.01, std::size_t miners = 2,
                           std::uint64_t withhold = 0) {
  sim::CampaignCell cell;
  cell.protocol = protocol;
  cell.miners = miners;
  cell.whales = 1;
  cell.a = a;
  cell.w = w;
  cell.v = 0.1;
  cell.shards = 32;
  cell.withhold = withhold;
  return cell;
}

double PmfMeanLambda(const std::vector<double>& pmf, std::uint64_t steps) {
  double mean = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    mean += pmf[k] * static_cast<double>(k) / static_cast<double>(steps);
  }
  return mean;
}

TEST(TrackedInitialShareTest, MatchesEngineNormalisation) {
  EXPECT_DOUBLE_EQ(TrackedInitialShare(MakeCell("pow", 0.2)), 0.2);
  // Three whales share 0.3: the tracked miner holds 0.1.
  sim::CampaignCell cell = MakeCell("pow", 0.3, 0.01, 10);
  cell.whales = 3;
  EXPECT_NEAR(TrackedInitialShare(cell), 0.1, 1e-12);
}

TEST(BinomialOracleTest, AppliesToPowAndNeoAtAnyWithhold) {
  const BinomialProportionalityOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("pow")));
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("neo")));
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("pow", 0.2, 0.01, 2, 1000)));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("mlpos")));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("slpos")));
}

TEST(BinomialOracleTest, ExactMomentsAndNormalisedPmf) {
  const BinomialProportionalityOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  const std::uint64_t n = 200;
  const double a = 0.2;
  const OraclePrediction prediction =
      oracle.Predict(MakeCell("pow", a), fairness, n);

  ASSERT_TRUE(prediction.mean.has_value());
  EXPECT_DOUBLE_EQ(*prediction.mean, a);
  ASSERT_TRUE(prediction.variance.has_value());
  EXPECT_NEAR(*prediction.variance, a * (1.0 - a) / 200.0, 1e-15);
  ASSERT_EQ(prediction.pmf.size(), n + 1);
  const double total =
      std::accumulate(prediction.pmf.begin(), prediction.pmf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(PmfMeanLambda(prediction.pmf, n), a, 1e-9);
}

TEST(BinomialOracleTest, UnfairProbabilityAgreesWithPowDeltaExact) {
  const BinomialProportionalityOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  // Choose n so no lattice point k/n sits on a fair-area edge: the oracle's
  // boundary interval is then empty and its value must equal 1 - Δ exactly.
  const std::uint64_t n = 203;
  const OraclePrediction prediction =
      oracle.Predict(MakeCell("pow", 0.2), fairness, n);
  ASSERT_TRUE(prediction.unfair_probability.has_value());
  EXPECT_EQ(prediction.unfair_boundary_mass, 0.0);
  EXPECT_NEAR(*prediction.unfair_probability,
              1.0 - math::PowDeltaExact(n, 0.2, 0.1), 1e-9);
  // The Hoeffding bound must dominate the exact value.
  ASSERT_TRUE(prediction.unfair_upper_bound.has_value());
  EXPECT_GE(*prediction.unfair_upper_bound + 1e-12,
            *prediction.unfair_probability);
}

TEST(BinomialOracleTest, ReportsAmbiguousBoundaryLatticeMass) {
  const BinomialProportionalityOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  // n = 100, a = 0.2: (1±ε)a lands exactly on k/n for k = 18 and 22, so
  // their pmf mass must be reported as boundary, not claimed for a side.
  const OraclePrediction prediction =
      oracle.Predict(MakeCell("pow", 0.2), fairness, 100);
  const double expected_boundary = math::BinomialPmf(100, 18, 0.2) +
                                   math::BinomialPmf(100, 22, 0.2);
  EXPECT_NEAR(prediction.unfair_boundary_mass, expected_boundary, 1e-12);
}

TEST(PolyaOracleTest, ApplicabilityMatrix) {
  const PolyaBetaLimitOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("mlpos")));
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("fslpos")));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("mlpos", 0.2, 0.01, 2, 1000)))
      << "withholding breaks the urn reinforcement schedule";
  sim::CampaignCell degenerate = MakeCell("cpos");
  degenerate.v = 0.0;
  degenerate.shards = 1;
  EXPECT_TRUE(oracle.AppliesTo(degenerate));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("cpos")))
      << "general C-PoS is not a plain Polya urn";
}

TEST(PolyaOracleTest, UsesTwoColorLimitParameters) {
  const PolyaBetaLimitOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  const std::uint64_t n = 120;
  const double a = 0.2;
  const double w = 0.05;
  const OraclePrediction prediction =
      oracle.Predict(MakeCell("mlpos", a, w), fairness, n);

  // The pmf must be the Beta-Binomial of the urn's Beta limit, which for
  // two miners is the ML-PoS limit Beta(a / w, (1 - a) / w).
  const core::BetaParams limit = core::MlPosLimitDistribution(a, w);
  for (const std::uint64_t k : {0ULL, 24ULL, 60ULL, 120ULL}) {
    EXPECT_NEAR(prediction.pmf[static_cast<std::size_t>(k)],
                math::BetaBinomialPmf(n, k, limit.alpha, limit.beta), 1e-12);
  }
  const double total =
      std::accumulate(prediction.pmf.begin(), prediction.pmf.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  ASSERT_TRUE(prediction.mean.has_value());
  EXPECT_NEAR(*prediction.mean, a, 1e-12);
  EXPECT_NEAR(PmfMeanLambda(prediction.pmf, n), a, 1e-9);
}

TEST(PolyaOracleTest, FiniteNEquitabilityTendsToClosedFormLimit) {
  const PolyaBetaLimitOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  const double w = 0.01;
  // The variance claim encodes the equitability closed form: the exact
  // finite-n normalised variance Var/(a(1-a)) is (1/n + w)/(1 + w) ...
  const OraclePrediction small =
      oracle.Predict(MakeCell("mlpos", 0.2, w), fairness, 100);
  ASSERT_TRUE(small.variance.has_value());
  EXPECT_NEAR(*small.variance / (0.2 * 0.8),
              (1.0 / 100.0 + w) / (1.0 + w), 1e-12);
  // ... and tends to Fanti et al.'s closed form w/(1+w) as n grows.
  const OraclePrediction large =
      oracle.Predict(MakeCell("mlpos", 0.2, w), fairness, 10000000);
  ASSERT_TRUE(large.variance.has_value());
  EXPECT_NEAR(*large.variance / (0.2 * 0.8),
              core::MlPosLimitNormalisedVariance(w), 1e-4);
}

TEST(CPosMartingaleOracleTest, MeanAndAzumaBound) {
  const CPosMartingaleOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("cpos")));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("cpos", 0.2, 0.01, 2, 500)));
  const core::FairnessSpec fairness{0.1, 0.1};
  const OraclePrediction prediction =
      oracle.Predict(MakeCell("cpos"), fairness, 5000);
  ASSERT_TRUE(prediction.mean.has_value());
  EXPECT_DOUBLE_EQ(*prediction.mean, 0.2);
  ASSERT_TRUE(prediction.unfair_upper_bound.has_value());
  EXPECT_NEAR(*prediction.unfair_upper_bound,
              core::CPosUnfairUpperBound(5000, 0.01, 0.1, 32, 0.2, 0.1),
              1e-12);
  EXPECT_FALSE(prediction.pmf.size() > 0);
}

TEST(SlPosDriftOracleTest, DriftDirectionFollowsTheoremFourNine) {
  const SlPosDriftOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("slpos")));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("slpos", 0.2, 0.01, 10)))
      << "multi-miner SL-PoS drift direction is not pinned";
  const core::FairnessSpec fairness{0.1, 0.1};

  const OraclePrediction poor =
      oracle.Predict(MakeCell("slpos", 0.3), fairness, 1000);
  ASSERT_TRUE(poor.mean_upper.has_value());
  EXPECT_NEAR(*poor.mean_upper, 0.3, 1e-12);
  EXPECT_FALSE(poor.mean.has_value());

  const OraclePrediction rich =
      oracle.Predict(MakeCell("slpos", 0.7), fairness, 1000);
  ASSERT_TRUE(rich.mean_lower.has_value());
  EXPECT_NEAR(*rich.mean_lower, 0.7, 1e-12);

  const OraclePrediction symmetric =
      oracle.Predict(MakeCell("slpos", 0.5), fairness, 1000);
  ASSERT_TRUE(symmetric.mean.has_value());
  EXPECT_DOUBLE_EQ(*symmetric.mean, 0.5);
}

TEST(DeterministicOracleTest, AlgorandSharesAreInvariant) {
  const DeterministicShareOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeCell("algorand")));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("algorand", 0.2, 0.01, 2, 100)));
  const core::FairnessSpec fairness{0.1, 0.1};
  const OraclePrediction prediction =
      oracle.Predict(MakeCell("algorand", 0.2, 0.01, 7), fairness, 4000);
  ASSERT_TRUE(prediction.deterministic_lambda.has_value());
  EXPECT_NEAR(*prediction.deterministic_lambda, 0.2, 1e-12);
  EXPECT_EQ(prediction.StochasticComparisons(), 0u);
}

TEST(DeterministicOracleTest, EosConstantRewardPullsTowardUniform) {
  const DeterministicShareOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  // Uniform stakes: every delegate earns the same, λ = 1/m exactly.
  const OraclePrediction uniform =
      oracle.Predict(MakeCell("eos", 0.5, 0.01, 2), fairness, 500);
  ASSERT_TRUE(uniform.deterministic_lambda.has_value());
  EXPECT_NEAR(*uniform.deterministic_lambda, 0.5, 1e-12);
  // Non-uniform: the constant w/m share drags the whale's fraction strictly
  // below proportional (the Section 6.4 expectational-fairness violation)
  // but keeps it above uniform.
  const OraclePrediction whale =
      oracle.Predict(MakeCell("eos", 0.7, 0.01, 2), fairness, 500);
  ASSERT_TRUE(whale.deterministic_lambda.has_value());
  EXPECT_LT(*whale.deterministic_lambda, 0.7);
  EXPECT_GT(*whale.deterministic_lambda, 0.5);
}

sim::CampaignCell MakeChainCell(const std::string& dynamics, double a,
                                double gamma = 0.0, double delay = 0.0) {
  sim::CampaignCell cell = MakeCell(dynamics, a);
  cell.chain_dynamics = true;
  cell.gamma = gamma;
  cell.delay = delay;
  return cell;
}

TEST(SelfishRevenueOracleTest, AppliesOnlyToMinoritySelfishChainCells) {
  const SelfishMiningRevenueOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeChainCell("selfish", 0.3, 0.5)));
  EXPECT_TRUE(oracle.AppliesTo(MakeChainCell("selfish", 0.5, 0.0)));
  EXPECT_FALSE(oracle.AppliesTo(MakeChainCell("selfish", 0.6, 0.5)))
      << "the closed form has no value for a majority pool";
  EXPECT_FALSE(oracle.AppliesTo(MakeChainCell("forkrace", 0.3)));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("selfish", 0.3)))
      << "an incentive cell that merely shares the name is not chain";
}

TEST(SelfishRevenueOracleTest, BandBracketsClosedFormRevenue) {
  const SelfishMiningRevenueOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  const std::uint64_t n = 4000;
  const double revenue = core::SelfishMiningRevenue(0.4, 0.9);
  const OraclePrediction prediction =
      oracle.Predict(MakeChainCell("selfish", 0.4, 0.9), fairness, n);
  ASSERT_TRUE(prediction.mean_lower.has_value());
  ASSERT_TRUE(prediction.mean_upper.has_value());
  EXPECT_NEAR(*prediction.mean_lower, revenue - 6.0 / 4000.0, 1e-12);
  EXPECT_NEAR(*prediction.mean_upper, revenue + 6.0 / 4000.0, 1e-12);
  EXPECT_FALSE(prediction.mean.has_value());
  // One drift test per claimed side.
  EXPECT_EQ(prediction.StochasticComparisons(), 2u);
  // At alpha = 0.4, gamma = 0.9 the pool earns well above its hash share —
  // the property the wrong-oracle negative control leans on.
  EXPECT_GT(revenue, 0.5);
}

TEST(ForkRaceOracleTest, ZeroDelayIsTheFullBinomialBattery) {
  const ForkRaceOracle oracle;
  EXPECT_TRUE(oracle.AppliesTo(MakeChainCell("forkrace", 0.3)));
  EXPECT_FALSE(oracle.AppliesTo(MakeCell("forkrace", 0.3)));
  const core::FairnessSpec fairness{0.1, 0.1};
  const std::uint64_t n = 200;
  const OraclePrediction prediction =
      oracle.Predict(MakeChainCell("forkrace", 0.2), fairness, n);
  ASSERT_TRUE(prediction.mean.has_value());
  EXPECT_DOUBLE_EQ(*prediction.mean, 0.2);
  ASSERT_TRUE(prediction.variance.has_value());
  EXPECT_NEAR(*prediction.variance, 0.2 * 0.8 / 200.0, 1e-15);
  ASSERT_EQ(prediction.pmf.size(), n + 1);
  EXPECT_NEAR(prediction.pmf[40], math::BinomialPmf(n, 40, 0.2), 1e-12);
  ASSERT_TRUE(prediction.unfair_probability.has_value());
  ASSERT_TRUE(prediction.unfair_upper_bound.has_value());
  // Exact zero fork physics, checked at essentially zero tolerance.
  ASSERT_TRUE(prediction.orphan_rate_expected.has_value());
  EXPECT_DOUBLE_EQ(*prediction.orphan_rate_expected, 0.0);
  EXPECT_LE(prediction.orphan_rate_tolerance, 1e-9);
  ASSERT_TRUE(prediction.reorg_depth_expected.has_value());
  EXPECT_DOUBLE_EQ(*prediction.reorg_depth_expected, 0.0);
}

TEST(ForkRaceOracleTest, DelayedRacesClaimRenewalForms) {
  const ForkRaceOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  const std::uint64_t n = 5000;
  const double a = 0.3;
  const double d = 0.2;
  const OraclePrediction prediction =
      oracle.Predict(MakeChainCell("forkrace", a, 0.0, d), fairness, n);
  // Minority drift: only an upper mean claim.
  ASSERT_TRUE(prediction.mean_upper.has_value());
  EXPECT_NEAR(*prediction.mean_upper, a + 3.0 / 5000.0, 1e-12);
  EXPECT_FALSE(prediction.mean_lower.has_value());
  EXPECT_FALSE(prediction.mean.has_value());
  EXPECT_TRUE(prediction.pmf.empty());
  const double rho = a * (1.0 - std::exp(-(1.0 - a) * d)) +
                     (1.0 - a) * (1.0 - std::exp(-a * d));
  ASSERT_TRUE(prediction.orphan_rate_expected.has_value());
  EXPECT_NEAR(*prediction.orphan_rate_expected, rho / (1.0 + rho), 1e-12);
  ASSERT_TRUE(prediction.reorg_depth_expected.has_value());
  EXPECT_NEAR(*prediction.reorg_depth_expected, 1.0 / (1.0 - rho), 1e-12);

  // Majority cell: the claim flips to a lower bound.
  const OraclePrediction majority =
      oracle.Predict(MakeChainCell("forkrace", 0.7, 0.0, d), fairness, n);
  ASSERT_TRUE(majority.mean_lower.has_value());
  EXPECT_FALSE(majority.mean_upper.has_value());
  // Symmetric cell: exact 1/2 by exchangeability.
  const OraclePrediction symmetric =
      oracle.Predict(MakeChainCell("forkrace", 0.5, 0.0, d), fairness, n);
  ASSERT_TRUE(symmetric.mean.has_value());
  EXPECT_DOUBLE_EQ(*symmetric.mean, 0.5);
}

TEST(ForkRaceOracleTest, ReorgDepthClaimGatedOnResolvedRaceCount) {
  // At a short horizon too few races resolve for the ratio estimator to
  // settle; the oracle must drop the reorg-depth claim rather than emit a
  // check destined to false-alarm.
  const ForkRaceOracle oracle;
  const core::FairnessSpec fairness{0.1, 0.1};
  const OraclePrediction shallow = oracle.Predict(
      MakeChainCell("forkrace", 0.3, 0.0, 0.05), fairness, 240);
  EXPECT_TRUE(shallow.orphan_rate_expected.has_value());
  EXPECT_FALSE(shallow.reorg_depth_expected.has_value());
}

TEST(OraclePredictionTest, StochasticComparisonCounting) {
  OraclePrediction prediction;
  EXPECT_EQ(prediction.StochasticComparisons(), 0u);
  prediction.mean = 0.2;
  prediction.variance = 0.01;
  EXPECT_EQ(prediction.StochasticComparisons(), 2u);
  prediction.pmf = {0.5, 0.5};
  prediction.unfair_probability = 0.1;
  prediction.unfair_upper_bound = 0.2;
  EXPECT_EQ(prediction.StochasticComparisons(), 5u);
  // A vacuous bound (>= 1) becomes a structural pass in the judge and must
  // not count toward the Bonferroni denominator.
  prediction.unfair_upper_bound = 1.7;
  EXPECT_EQ(prediction.StochasticComparisons(), 4u);
  prediction.unfair_upper_bound = 0.2;
  prediction.mean_lower = 0.1;
  EXPECT_EQ(prediction.StochasticComparisons(), 6u);
  // Deterministic claims are tolerance-checked, never hypothesis-tested.
  prediction.deterministic_lambda = 0.2;
  EXPECT_EQ(prediction.StochasticComparisons(), 0u);
}

TEST(DefaultOraclesTest, OrderedCatalogueResolvesEveryProtocolFamily) {
  const std::vector<const Oracle*>& oracles = DefaultOracles();
  ASSERT_FALSE(oracles.empty());
  auto match = [&](const sim::CampaignCell& cell) -> std::string {
    for (const Oracle* oracle : oracles) {
      if (oracle->AppliesTo(cell)) return oracle->name();
    }
    return "";
  };
  EXPECT_EQ(match(MakeCell("pow")), "binomial-proportionality");
  EXPECT_EQ(match(MakeCell("neo")), "binomial-proportionality");
  EXPECT_EQ(match(MakeCell("mlpos")), "polya-beta-limit");
  EXPECT_EQ(match(MakeCell("fslpos")), "polya-beta-limit");
  EXPECT_EQ(match(MakeCell("cpos")), "cpos-martingale");
  EXPECT_EQ(match(MakeCell("slpos")), "slpos-drift");
  EXPECT_EQ(match(MakeCell("algorand")), "deterministic-share");
  EXPECT_EQ(match(MakeCell("eos")), "deterministic-share");
  // Degenerate C-PoS resolves to the exact Polya law, not the bound-only
  // martingale oracle.
  sim::CampaignCell degenerate = MakeCell("cpos");
  degenerate.v = 0.0;
  degenerate.shards = 1;
  EXPECT_EQ(match(degenerate), "polya-beta-limit");
  // Withheld ML-PoS has no exact oracle (sanity checks still run).
  EXPECT_EQ(match(MakeCell("mlpos", 0.2, 0.01, 2, 500)), "");
  // Chain-dynamics cells resolve to the fork-aware oracles.
  EXPECT_EQ(match(MakeChainCell("selfish", 0.3, 0.5)), "selfish-revenue");
  EXPECT_EQ(match(MakeChainCell("forkrace", 0.3, 0.0, 0.2)),
            "forkrace-renewal");
  // Majority selfish pools run unverified (the closed form diverges).
  EXPECT_EQ(match(MakeChainCell("selfish", 0.6, 0.5)), "");
}

}  // namespace
}  // namespace fairchain::verify
