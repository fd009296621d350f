// Integration tests: the paper's headline claims, reproduced end to end
// through the public API (models -> Monte Carlo engine -> fairness layer).
//
// Each test is one claim from the paper, named accordingly.  Replication
// counts are sized for CI (~seconds each); the bench harness runs the same
// code at paper scale.

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/experiments.hpp"
#include "core/monte_carlo.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "support/stats.hpp"

namespace fairchain::core {
namespace {

SimulationConfig MediumConfig(std::uint64_t steps = 2000,
                              std::uint64_t reps = 1500) {
  SimulationConfig config;
  config.steps = steps;
  config.replications = reps;
  config.seed = 20210620;
  config.checkpoints = LinearCheckpoints(steps, 25);
  return config;
}

const FairnessSpec kSpec{0.1, 0.1};

// --- Theorem 3.2 / 3.3 / 3.5: expectational fairness holds ---

TEST(PaperClaims, Theorem32PowExpectationalFairness) {
  protocol::PowModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_TRUE(result.Expectational().consistent)
      << "mean=" << result.Final().mean;
}

TEST(PaperClaims, Theorem33MlPosExpectationalFairness) {
  protocol::MlPosModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_TRUE(result.Expectational().consistent)
      << "mean=" << result.Final().mean;
}

TEST(PaperClaims, Theorem35CPosExpectationalFairness) {
  protocol::CPosModel model(experiments::kDefaultW, experiments::kDefaultV,
                            experiments::kDefaultShards);
  MonteCarloEngine engine(MediumConfig(), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_TRUE(result.Expectational().consistent)
      << "mean=" << result.Final().mean;
}

// --- Theorem 3.4: SL-PoS is NOT expectationally fair ---

TEST(PaperClaims, Theorem34SlPosExpectationalUnfairness) {
  protocol::SlPosModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto report = result.Expectational();
  EXPECT_FALSE(report.consistent);
  EXPECT_LT(report.sample_mean, 0.1);  // far below a = 0.2 by n = 2000
}

// --- Theorem 4.2 / Figure 2(a): PoW reaches robust fairness ---

TEST(PaperClaims, Figure2aPowConvergesIntoFairArea) {
  protocol::PowModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(3000, 1500), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  // Early: noticeably unfair; late: unfair probability below delta.
  EXPECT_GT(result.checkpoints.front().unfair_probability, 0.3);
  EXPECT_LT(result.Final().unfair_probability, kSpec.delta);
  const auto convergence = result.ConvergenceStep();
  ASSERT_TRUE(convergence.has_value());
  // Paper Table 1: ~1000 blocks at a = 0.2 (exact binomial says ~1080).
  EXPECT_GT(*convergence, 400u);
  EXPECT_LT(*convergence, 2200u);
}

// --- Figure 2(b): ML-PoS stays robustly unfair at w = 0.01 ---

TEST(PaperClaims, Figure2bMlPosBandNeverNarrows) {
  protocol::MlPosModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(3000, 1500), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_GT(result.Final().unfair_probability, kSpec.delta);
  EXPECT_FALSE(result.ConvergenceStep().has_value());
  // The 5-95 band extends beyond the fair area on both sides.
  EXPECT_LT(result.Final().p05, kSpec.FairLow(0.2));
  EXPECT_GT(result.Final().p95, kSpec.FairHigh(0.2));
}

TEST(PaperClaims, MlPosEmpiricalUnfairMatchesBetaLimit) {
  // The empirical final unfair probability approaches the analytic limit
  // 1 - [I_{0.22} - I_{0.18}](Beta(20, 80)).
  protocol::MlPosModel model(0.01);
  MonteCarloEngine engine(MediumConfig(4000, 2500), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  const double limit = MlPosLimitUnfairProbability(0.2, 0.01, 0.1);
  EXPECT_NEAR(result.Final().unfair_probability, limit, 0.06);
}

// --- Figure 2(c): SL-PoS decays toward zero ---

TEST(PaperClaims, Figure2cSlPosDecaysToZero) {
  protocol::SlPosModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(5000, 800), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  // First block: mean win rate 12.5%; by 5000 blocks far below.
  EXPECT_LT(result.Final().mean, 0.05);
  EXPECT_GT(result.Final().unfair_probability, 0.95);
  // Monotone decay of mean lambda across checkpoints (within noise).
  EXPECT_LT(result.Final().mean, result.checkpoints.front().mean);
}

// --- Figure 2(d): C-PoS band is much narrower than ML-PoS ---

TEST(PaperClaims, Figure2dCPosNarrowerThanMlPos) {
  MonteCarloEngine engine(MediumConfig(2000, 1500), kSpec);
  protocol::MlPosModel ml(experiments::kDefaultW);
  protocol::CPosModel cpos(experiments::kDefaultW, experiments::kDefaultV,
                           experiments::kDefaultShards);
  const auto ml_result = engine.RunTwoMiner(ml, 0.2);
  const auto cpos_result = engine.RunTwoMiner(cpos, 0.2);
  const double ml_band = ml_result.Final().p95 - ml_result.Final().p05;
  const double cpos_band = cpos_result.Final().p95 - cpos_result.Final().p05;
  EXPECT_LT(cpos_band, ml_band / 3.0);
  EXPECT_LT(cpos_result.Final().unfair_probability, kSpec.delta);
}

// --- Figure 3: unfair probability orderings across a ---

TEST(PaperClaims, Figure3aPowLargerMinersConvergeFaster) {
  MonteCarloEngine engine(MediumConfig(2500, 1200), kSpec);
  protocol::PowModel model(experiments::kDefaultW);
  const auto small = engine.RunTwoMiner(model, 0.1);
  const auto large = engine.RunTwoMiner(model, 0.3);
  const auto cvg_small = small.ConvergenceStep();
  const auto cvg_large = large.ConvergenceStep();
  ASSERT_TRUE(cvg_large.has_value());
  // Paper: a = 0.3 needs < 800 blocks; a = 0.1 needs > 2000.
  EXPECT_LT(*cvg_large, 1200u);
  if (cvg_small.has_value()) {
    EXPECT_GT(*cvg_small, *cvg_large);
  }
}

TEST(PaperClaims, Figure3bMlPosRicherFeelsFairer) {
  MonteCarloEngine engine(MediumConfig(2000, 1200), kSpec);
  protocol::MlPosModel model(experiments::kDefaultW);
  const auto poor = engine.RunTwoMiner(model, 0.1);
  const auto rich = engine.RunTwoMiner(model, 0.4);
  EXPECT_GT(poor.Final().unfair_probability,
            rich.Final().unfair_probability);
}

TEST(PaperClaims, Figure3cSlPosUnfairProbabilityRisesToOne) {
  MonteCarloEngine engine(MediumConfig(2000, 800), kSpec);
  protocol::SlPosModel model(experiments::kDefaultW);
  const auto result = engine.RunTwoMiner(model, 0.1);
  // Paper: a = 0.1 starts ~98% unfair and converges to 100% by n ~ 200.
  EXPECT_GT(result.checkpoints.front().unfair_probability, 0.9);
  EXPECT_GT(result.Final().unfair_probability, 0.99);
}

TEST(PaperClaims, Figure3dCPosBeatsMlPosAtEveryAllocation) {
  MonteCarloEngine engine(MediumConfig(1500, 1000), kSpec);
  protocol::MlPosModel ml(experiments::kDefaultW);
  protocol::CPosModel cpos(experiments::kDefaultW, experiments::kDefaultV,
                           experiments::kDefaultShards);
  for (const double a : {0.1, 0.2, 0.3}) {
    const auto ml_result = engine.RunTwoMiner(ml, a);
    const auto cpos_result = engine.RunTwoMiner(cpos, a);
    EXPECT_LT(cpos_result.Final().unfair_probability,
              ml_result.Final().unfair_probability)
        << "a=" << a;
  }
}

// --- Figure 5(a): ML-PoS reward size drives robust fairness ---

TEST(PaperClaims, Figure5aSmallRewardRestoresRobustFairness) {
  MonteCarloEngine engine(MediumConfig(2000, 1200), kSpec);
  protocol::MlPosModel large(0.1);
  protocol::MlPosModel tiny(1e-4);
  const auto large_result = engine.RunTwoMiner(large, 0.2);
  const auto tiny_result = engine.RunTwoMiner(tiny, 0.2);
  // Paper: w = 0.1 is >= 85% unfair; w = 1e-4 achieves (ε, δ)-fairness.
  EXPECT_GT(large_result.Final().unfair_probability, 0.8);
  EXPECT_LT(tiny_result.Final().unfair_probability, kSpec.delta);
}

// --- Figure 5(d): inflation reward drives C-PoS fairness ---

TEST(PaperClaims, Figure5dInflationMonotonicallyImprovesFairness) {
  // The monotone effect of inflation is sharpest at P = 1 (C-PoS without
  // sharding), where v = 0 degenerates to ML-PoS; the magnitudes then track
  // the paper's Figure 5(d) series (~70% / ~50% / ~10%).
  MonteCarloEngine engine(MediumConfig(1500, 1200), kSpec);
  double prev_unfair = 1.1;
  std::vector<double> unfair_at_v;
  for (const double v : {0.0, 0.01, 0.1}) {
    protocol::CPosModel model(experiments::kDefaultW, v, 1);
    const auto result = engine.RunTwoMiner(model, 0.2);
    EXPECT_LT(result.Final().unfair_probability, prev_unfair) << "v=" << v;
    prev_unfair = result.Final().unfair_probability;
    unfair_at_v.push_back(result.Final().unfair_probability);
  }
  EXPECT_GT(unfair_at_v[0], 0.4);            // v = 0: clearly unfair
  EXPECT_LE(prev_unfair, kSpec.delta + 0.05);  // v = 0.1 ~ fair
  // At the full P = 32 sharding the inflation makes C-PoS essentially
  // perfectly robust already at v = 0.01 (even stronger than the paper's
  // plotted magnitudes — see EXPERIMENTS.md).
  protocol::CPosModel sharded(experiments::kDefaultW, 0.01,
                              experiments::kDefaultShards);
  const auto sharded_result = engine.RunTwoMiner(sharded, 0.2);
  EXPECT_LT(sharded_result.Final().unfair_probability, kSpec.delta);
}

// --- Figure 6: FSL-PoS treatment and reward withholding ---

TEST(PaperClaims, Figure6aFslPosRestoresExpectationalFairness) {
  protocol::FslPosModel model(experiments::kDefaultW);
  MonteCarloEngine engine(MediumConfig(2000, 1500), kSpec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_TRUE(result.Expectational().consistent);
  // But robust fairness is NOT achieved (band like ML-PoS).
  EXPECT_GT(result.Final().unfair_probability, kSpec.delta);
}

TEST(PaperClaims, Figure6bWithholdingImprovesRobustFairness) {
  protocol::FslPosModel model(experiments::kDefaultW);
  SimulationConfig config = MediumConfig(3000, 1200);
  MonteCarloEngine plain(config, kSpec);
  config.withhold_period = 1000;
  MonteCarloEngine withheld(config, kSpec);
  const auto plain_result = plain.RunTwoMiner(model, 0.2);
  const auto withheld_result = withheld.RunTwoMiner(model, 0.2);
  EXPECT_LT(withheld_result.Final().unfair_probability,
            plain_result.Final().unfair_probability);
  // Expectational fairness preserved under withholding.
  EXPECT_TRUE(withheld_result.Expectational().consistent);
}

// --- Table 1: multi-miner games ---

TEST(PaperClaims, Table1PowMultiMinerStable) {
  SimulationConfig config = MediumConfig(2500, 800);
  protocol::PowModel model(experiments::kDefaultW);
  for (const std::size_t miners : {2u, 5u, 10u}) {
    const auto outcome = experiments::RunMultiMinerGame(
        model, miners, 0.2, config, kSpec);
    EXPECT_NEAR(outcome.avg_lambda, 0.2, 0.02) << miners;
    EXPECT_TRUE(outcome.convergence_step.has_value()) << miners;
  }
}

TEST(PaperClaims, Table1SlPosDependsOnCompetitorSplit) {
  protocol::SlPosModel model(experiments::kDefaultW);
  // 2 miners: A (20%) vs one 80% whale -> A is wiped out.
  const auto two = experiments::RunMultiMinerGame(
      model, 2, 0.2, MediumConfig(3000, 400), kSpec);
  EXPECT_LT(two.avg_lambda, 0.05);
  // 10 miners: A (20%) vs nine 8.9% minnows -> A is the biggest and
  // monopolises.  The cumulative reward fraction lambda climbs toward 1
  // only gradually (it averages the whole history), so assert the climb
  // plus the terminal stake share directly.
  const auto ten_short = experiments::RunMultiMinerGame(
      model, 10, 0.2, MediumConfig(3000, 250), kSpec);
  const auto ten = experiments::RunMultiMinerGame(
      model, 10, 0.2, MediumConfig(10000, 250), kSpec);
  EXPECT_GT(ten.avg_lambda, 0.4);                 // far above its 20% share
  EXPECT_GT(ten.avg_lambda, ten_short.avg_lambda);  // still rising
  EXPECT_FALSE(ten.convergence_step.has_value());
  // Terminal state: the whale's share has climbed far above 0.2 and it is
  // the top stakeholder in nearly all games ("only the biggest miner will
  // monopolize"); reaching share ~1 takes n >> 10^5 (see EXPERIMENTS.md).
  RunningStats share_stats;
  int whale_on_top = 0;
  const int reps = 100;
  const RngStream master(991);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    protocol::StakeState state(experiments::WhaleStakes(10, 0.2));
    RngStream rng = master.Split(rep);
    model.RunGame(state, rng, 10000);
    share_stats.Add(state.StakeShare(0));
    bool top = true;
    for (std::size_t j = 1; j < state.miner_count(); ++j) {
      if (state.stake(j) > state.stake(0)) top = false;
    }
    if (top) ++whale_on_top;
  }
  EXPECT_GT(share_stats.Mean(), 0.4);
  EXPECT_GT(whale_on_top, 80);
}

TEST(PaperClaims, Table1FiveEqualMinersSymmetric) {
  SimulationConfig config = MediumConfig(5000, 500);
  protocol::SlPosModel model(experiments::kDefaultW);
  // 5 miners of 20% each: symmetric, so avg lambda = 0.2, but the game
  // still monopolises: the unfair probability keeps climbing toward 1.
  const auto outcome = experiments::RunMultiMinerGame(model, 5, 0.2, config,
                                                      kSpec);
  EXPECT_NEAR(outcome.avg_lambda, 0.2, 0.05);
  EXPECT_GT(outcome.unfair_probability, 0.75);
  EXPECT_FALSE(outcome.convergence_step.has_value());
}

// --- Section 5.2 sanity: protocol ranking at paper defaults ---

TEST(PaperClaims, ProtocolRankingPowCPosMlPosSlPos) {
  MonteCarloEngine engine(MediumConfig(2500, 1000), kSpec);
  protocol::PowModel pow(experiments::kDefaultW);
  protocol::MlPosModel ml(experiments::kDefaultW);
  protocol::SlPosModel sl(experiments::kDefaultW);
  protocol::CPosModel cpos(experiments::kDefaultW, experiments::kDefaultV,
                           experiments::kDefaultShards);
  const double u_pow = engine.RunTwoMiner(pow, 0.2).Final().unfair_probability;
  const double u_cpos =
      engine.RunTwoMiner(cpos, 0.2).Final().unfair_probability;
  const double u_ml = engine.RunTwoMiner(ml, 0.2).Final().unfair_probability;
  const double u_sl = engine.RunTwoMiner(sl, 0.2).Final().unfair_probability;
  EXPECT_LE(u_pow, u_cpos + 0.02);
  EXPECT_LT(u_cpos, u_ml);
  EXPECT_LT(u_ml, u_sl);
}

}  // namespace
}  // namespace fairchain::core
