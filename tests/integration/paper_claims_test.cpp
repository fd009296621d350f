// Integration tests: the paper's headline claims, reproduced end to end on
// the campaign path `fairchain campaign` runs (ScenarioSpec ->
// CampaignRunner -> CellOutcome).
//
// Each test is one claim from the paper, named accordingly.  Its spec is
// the registry scenario of the claim's figure or table, narrowed to the
// cells the claim reads and sized for CI; every cell draws from its own
// CellSeed stream.  `fairchain campaign <name>` runs the same cells at
// paper scale.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "protocol/model_factory.hpp"
#include "protocol/stake_state.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_registry.hpp"
#include "support/stats.hpp"

namespace fairchain::sim {
namespace {

constexpr std::uint64_t kSeed = 20210620;

const core::FairnessSpec kSpec{0.1, 0.1};

// Registry scenario `name` at `steps` x `reps` with 25 linear checkpoints.
// No claim reads the population metrics, so they are off.
ScenarioSpec Scenario(const std::string& name, std::uint64_t steps,
                      std::uint64_t reps) {
  ScenarioSpec spec = ScenarioRegistry::BuiltIn().Get(name);
  spec.steps = steps;
  spec.replications = reps;
  spec.seed = kSeed;
  spec.checkpoint_count = 25;
  spec.spacing = CheckpointSpacing::kLinear;
  spec.population_metrics = false;
  return spec;
}

// Every cell's result, in grid order.
std::vector<core::SimulationResult> RunCells(const ScenarioSpec& spec) {
  std::vector<core::SimulationResult> results;
  for (CellOutcome& outcome : CampaignRunner().Run(spec, {})) {
    results.push_back(std::move(outcome.result));
  }
  return results;
}

// The result of a one-cell spec.
core::SimulationResult RunCell(const ScenarioSpec& spec) {
  EXPECT_EQ(spec.CellCount(), 1u) << spec.ToText();
  return RunCells(spec).front();
}

// Figure 2's scenario (a = 0.2, w = 0.01, v = 0.1, P = 32) for one
// protocol.
ScenarioSpec Fig2(const std::string& protocol, std::uint64_t steps,
                  std::uint64_t reps) {
  ScenarioSpec spec = Scenario("fig2", steps, reps);
  spec.protocols = {protocol};
  return spec;
}

// --- Theorem 3.2 / 3.3 / 3.5: expectational fairness holds ---

TEST(PaperClaims, Theorem32PowExpectationalFairness) {
  const auto result = RunCell(Fig2("pow", 2000, 1500));
  EXPECT_TRUE(result.Expectational().consistent)
      << "mean=" << result.Final().mean;
}

TEST(PaperClaims, Theorem33MlPosExpectationalFairness) {
  const auto result = RunCell(Fig2("mlpos", 2000, 1500));
  EXPECT_TRUE(result.Expectational().consistent)
      << "mean=" << result.Final().mean;
}

TEST(PaperClaims, Theorem35CPosExpectationalFairness) {
  const auto result = RunCell(Fig2("cpos", 2000, 1500));
  EXPECT_TRUE(result.Expectational().consistent)
      << "mean=" << result.Final().mean;
}

// --- Theorem 3.4: SL-PoS is NOT expectationally fair ---

TEST(PaperClaims, Theorem34SlPosExpectationalUnfairness) {
  const auto result = RunCell(Fig2("slpos", 2000, 1500));
  const auto report = result.Expectational();
  EXPECT_FALSE(report.consistent);
  EXPECT_LT(report.sample_mean, 0.1);  // far below a = 0.2 by n = 2000
}

// --- Theorem 4.2 / Figure 2(a): PoW reaches robust fairness ---

TEST(PaperClaims, Figure2aPowConvergesIntoFairArea) {
  const auto result = RunCell(Fig2("pow", 3000, 1500));
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
  const auto result = RunCell(Fig2("mlpos", 3000, 1500));
  EXPECT_GT(result.Final().unfair_probability, kSpec.delta);
  EXPECT_FALSE(result.ConvergenceStep().has_value());
  // The 5-95 band extends beyond the fair area on both sides.
  EXPECT_LT(result.Final().p05, kSpec.FairLow(0.2));
  EXPECT_GT(result.Final().p95, kSpec.FairHigh(0.2));
}

TEST(PaperClaims, MlPosEmpiricalUnfairMatchesBetaLimit) {
  // The empirical final unfair probability approaches the analytic limit
  // 1 - [I_{0.22} - I_{0.18}](Beta(20, 80)).
  const auto result = RunCell(Fig2("mlpos", 4000, 2500));
  const double limit = core::MlPosLimitUnfairProbability(0.2, 0.01, 0.1);
  EXPECT_NEAR(result.Final().unfair_probability, limit, 0.06);
}

// --- Figure 2(c): SL-PoS decays toward zero ---

TEST(PaperClaims, Figure2cSlPosDecaysToZero) {
  const auto result = RunCell(Fig2("slpos", 5000, 800));
  // First block: mean win rate 12.5%; by 5000 blocks far below.
  EXPECT_LT(result.Final().mean, 0.05);
  EXPECT_GT(result.Final().unfair_probability, 0.95);
  // Monotone decay of mean lambda across checkpoints (within noise).
  EXPECT_LT(result.Final().mean, result.checkpoints.front().mean);
}

// --- Figure 2(d): C-PoS band is much narrower than ML-PoS ---

TEST(PaperClaims, Figure2dCPosNarrowerThanMlPos) {
  ScenarioSpec spec = Scenario("fig2", 2000, 1500);
  spec.protocols = {"mlpos", "cpos"};
  const auto results = RunCells(spec);
  const auto& ml = results[0].Final();
  const auto& cpos = results[1].Final();
  EXPECT_LT(cpos.p95 - cpos.p05, (ml.p95 - ml.p05) / 3.0);
  EXPECT_LT(cpos.unfair_probability, kSpec.delta);
}

// --- Figure 3: unfair probability orderings across a ---

TEST(PaperClaims, Figure3aPowLargerMinersConvergeFaster) {
  ScenarioSpec spec = Scenario("fig3", 2500, 1200);
  spec.protocols = {"pow"};
  spec.allocations = {0.1, 0.3};
  const auto results = RunCells(spec);
  const auto cvg_small = results[0].ConvergenceStep();
  const auto cvg_large = results[1].ConvergenceStep();
  ASSERT_TRUE(cvg_large.has_value());
  // Paper: a = 0.3 needs < 800 blocks; a = 0.1 needs > 2000.
  EXPECT_LT(*cvg_large, 1200u);
  if (cvg_small.has_value()) {
    EXPECT_GT(*cvg_small, *cvg_large);
  }
}

TEST(PaperClaims, Figure3bMlPosRicherFeelsFairer) {
  ScenarioSpec spec = Scenario("fig3", 2000, 1200);
  spec.protocols = {"mlpos"};
  spec.allocations = {0.1, 0.4};
  const auto results = RunCells(spec);
  EXPECT_GT(results[0].Final().unfair_probability,
            results[1].Final().unfair_probability);
}

TEST(PaperClaims, Figure3cSlPosUnfairProbabilityRisesToOne) {
  ScenarioSpec spec = Scenario("fig3", 2000, 800);
  spec.protocols = {"slpos"};
  spec.allocations = {0.1};
  const auto result = RunCell(spec);
  // Paper: a = 0.1 starts ~98% unfair and converges to 100% by n ~ 200.
  EXPECT_GT(result.checkpoints.front().unfair_probability, 0.9);
  EXPECT_GT(result.Final().unfair_probability, 0.99);
}

TEST(PaperClaims, Figure3dCPosBeatsMlPosAtEveryAllocation) {
  ScenarioSpec spec = Scenario("fig3", 1500, 1000);
  spec.protocols = {"mlpos", "cpos"};
  spec.allocations = {0.1, 0.2, 0.3};
  const auto results = RunCells(spec);
  for (std::size_t i = 0; i < spec.allocations.size(); ++i) {
    EXPECT_LT(results[3 + i].Final().unfair_probability,
              results[i].Final().unfair_probability)
        << "a=" << spec.allocations[i];
  }
}

// --- Figure 5(a): ML-PoS reward size drives robust fairness ---

TEST(PaperClaims, Figure5aSmallRewardRestoresRobustFairness) {
  ScenarioSpec spec = Scenario("fig5", 2000, 1200);
  spec.protocols = {"mlpos"};
  spec.rewards = {0.1, 1e-4};
  const auto results = RunCells(spec);
  // Paper: w = 0.1 is >= 85% unfair; w = 1e-4 achieves (ε, δ)-fairness.
  EXPECT_GT(results[0].Final().unfair_probability, 0.8);
  EXPECT_LT(results[1].Final().unfair_probability, kSpec.delta);
}

// --- Figure 5(d): inflation reward drives C-PoS fairness ---

TEST(PaperClaims, Figure5dInflationMonotonicallyImprovesFairness) {
  // The monotone effect of inflation is sharpest at P = 1 (C-PoS without
  // sharding), where v = 0 degenerates to ML-PoS; the magnitudes then track
  // the paper's Figure 5(d) series (~70% / ~50% / ~10%).
  ScenarioSpec spec = Scenario("fig5d", 1500, 1200);
  spec.inflations = {0.0, 0.01, 0.1};
  spec.shard_counts = {1};
  double prev_unfair = 1.1;
  std::vector<double> unfair_at_v;
  for (const auto& result : RunCells(spec)) {
    EXPECT_LT(result.Final().unfair_probability, prev_unfair)
        << "v=" << spec.inflations[unfair_at_v.size()];
    prev_unfair = result.Final().unfair_probability;
    unfair_at_v.push_back(result.Final().unfair_probability);
  }
  ASSERT_EQ(unfair_at_v.size(), 3u);
  EXPECT_GT(unfair_at_v[0], 0.4);            // v = 0: clearly unfair
  EXPECT_LE(prev_unfair, kSpec.delta + 0.05);  // v = 0.1 ~ fair
  // At the full P = 32 sharding the inflation makes C-PoS essentially
  // perfectly robust already at v = 0.01 (even stronger than the paper's
  // plotted magnitudes — see EXPERIMENTS.md).
  spec.inflations = {0.01};
  spec.shard_counts = {32};
  EXPECT_LT(RunCell(spec).Final().unfair_probability, kSpec.delta);
}

// --- Figure 6: FSL-PoS treatment and reward withholding ---

TEST(PaperClaims, Figure6aFslPosRestoresExpectationalFairness) {
  ScenarioSpec spec = Scenario("fig6", 2000, 1500);
  spec.withhold_periods = {0};
  const auto result = RunCell(spec);
  EXPECT_TRUE(result.Expectational().consistent);
  // But robust fairness is NOT achieved (band like ML-PoS).
  EXPECT_GT(result.Final().unfair_probability, kSpec.delta);
}

TEST(PaperClaims, Figure6bWithholdingImprovesRobustFairness) {
  ScenarioSpec spec = Scenario("fig6", 3000, 1200);
  spec.withhold_periods = {0, 1000};
  const auto results = RunCells(spec);
  const auto& plain = results[0];
  const auto& withheld = results[1];
  EXPECT_LT(withheld.Final().unfair_probability,
            plain.Final().unfair_probability);
  // Expectational fairness preserved under withholding.
  EXPECT_TRUE(withheld.Expectational().consistent);
}

// --- Table 1: multi-miner games (A holds 20%, the rest split equally) ---

ScenarioSpec Table1(const std::string& protocol,
                    std::vector<std::size_t> miners, std::uint64_t steps,
                    std::uint64_t reps) {
  ScenarioSpec spec = Scenario("table1", steps, reps);
  spec.protocols = {protocol};
  spec.miner_counts = std::move(miners);
  return spec;
}

TEST(PaperClaims, Table1PowMultiMinerStable) {
  const ScenarioSpec spec = Table1("pow", {2, 5, 10}, 2500, 800);
  const auto results = RunCells(spec);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t miners = spec.miner_counts[i];
    EXPECT_NEAR(results[i].Final().mean, 0.2, 0.02) << miners;
    EXPECT_TRUE(results[i].ConvergenceStep().has_value()) << miners;
  }
}

TEST(PaperClaims, Table1SlPosDependsOnCompetitorSplit) {
  // 2 miners: A (20%) vs one 80% whale -> A is wiped out.
  const auto two = RunCell(Table1("slpos", {2}, 3000, 400));
  EXPECT_LT(two.Final().mean, 0.05);
  // 10 miners: A (20%) vs nine 8.9% minnows -> A is the biggest and
  // monopolises.  The cumulative reward fraction lambda climbs toward 1
  // only gradually (it averages the whole history), so assert the climb
  // plus the terminal stake share directly.
  const auto ten_short = RunCell(Table1("slpos", {10}, 3000, 250));
  const ScenarioSpec ten_spec = Table1("slpos", {10}, 10000, 250);
  const auto ten = RunCell(ten_spec);
  EXPECT_GT(ten.Final().mean, 0.4);                   // far above its 20%
  EXPECT_GT(ten.Final().mean, ten_short.Final().mean);  // still rising
  EXPECT_FALSE(ten.ConvergenceStep().has_value());
  // Terminal state: the whale's share has climbed far above 0.2 and it is
  // the top stakeholder in nearly all games ("only the biggest miner will
  // monopolize"); reaching share ~1 takes n >> 10^5 (see EXPERIMENTS.md).
  // The campaign keeps no terminal stakes, so these games replay the
  // cell's model and stakes directly.
  const CampaignCell cell = ten_spec.ExpandCells().front();
  const auto model =
      protocol::MakeModel(cell.protocol, cell.w, cell.v, cell.shards);
  RunningStats share_stats;
  int whale_on_top = 0;
  const int reps = 100;
  const RngStream master(991);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    protocol::StakeState state(cell.Stakes());
    RngStream rng = master.Split(rep);
    model->RunSteps(state, state.step(), 10000, rng);
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
  // 5 miners of 20% each: symmetric, so avg lambda = 0.2, but the game
  // still monopolises: the unfair probability keeps climbing toward 1.
  const auto result = RunCell(Table1("slpos", {5}, 5000, 500));
  EXPECT_NEAR(result.Final().mean, 0.2, 0.05);
  EXPECT_GT(result.Final().unfair_probability, 0.75);
  EXPECT_FALSE(result.ConvergenceStep().has_value());
}

// --- Section 5.2 sanity: protocol ranking at paper defaults ---

TEST(PaperClaims, ProtocolRankingPowCPosMlPosSlPos) {
  ScenarioSpec spec = Scenario("fig2", 2500, 1000);
  spec.protocols = {"pow", "cpos", "mlpos", "slpos"};
  const auto results = RunCells(spec);
  const double u_pow = results[0].Final().unfair_probability;
  const double u_cpos = results[1].Final().unfair_probability;
  const double u_ml = results[2].Final().unfair_probability;
  const double u_sl = results[3].Final().unfair_probability;
  EXPECT_LE(u_pow, u_cpos + 0.02);
  EXPECT_LT(u_cpos, u_ml);
  EXPECT_LT(u_ml, u_sl);
}

}  // namespace
}  // namespace fairchain::sim
