// Tests for the Monte Carlo engine: determinism, checkpoint statistics,
// and convergence detection.

#include "core/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "math/special.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::core {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.steps = 200;
  config.replications = 400;
  config.seed = 7;
  config.checkpoints = {50, 100, 200};
  return config;
}

TEST(SimulationConfigTest, ValidatesRanges) {
  SimulationConfig config = SmallConfig();
  EXPECT_NO_THROW(config.Validate());
  config.steps = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.replications = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.checkpoints = {0, 100};
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.checkpoints = {100, 100};
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config = SmallConfig();
  config.checkpoints = {100, 300};
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(LinearCheckpointsTest, EndsAtStepsAndAscends) {
  const auto cps = LinearCheckpoints(1000, 10);
  EXPECT_EQ(cps.back(), 1000u);
  for (std::size_t i = 1; i < cps.size(); ++i) EXPECT_GT(cps[i], cps[i - 1]);
}

TEST(LinearCheckpointsTest, CountCappedBySteps) {
  const auto cps = LinearCheckpoints(5, 100);
  EXPECT_EQ(cps.size(), 5u);
  EXPECT_EQ(cps.front(), 1u);
}

TEST(LinearCheckpointsTest, ExtremeHorizonDoesNotOverflow) {
  // Regression: steps * k used to wrap std::uint64_t for steps beyond
  // 2^64 / count, collapsing the schedule into garbage (non-monotone,
  // nowhere near steps).  The 128-bit intermediate keeps it exact.
  const std::uint64_t huge = (std::uint64_t{1} << 63) + 12345u;
  const auto cps = LinearCheckpoints(huge, 120);
  ASSERT_FALSE(cps.empty());
  EXPECT_EQ(cps.back(), huge);
  for (std::size_t i = 0; i < cps.size(); ++i) {
    EXPECT_LE(cps[i], huge);
    if (i > 0) {
      EXPECT_GT(cps[i], cps[i - 1]);
    }
  }
  // The all-ones horizon with a count that does not divide it.
  const std::uint64_t max = ~std::uint64_t{0};
  const auto extreme = LinearCheckpoints(max, 7);
  EXPECT_EQ(extreme.back(), max);
  for (std::size_t i = 1; i < extreme.size(); ++i) {
    EXPECT_GT(extreme[i], extreme[i - 1]);
  }
}

TEST(LogCheckpointsTest, LogSpacedAndComplete) {
  const auto cps = LogCheckpoints(100000, 20, 10);
  EXPECT_EQ(cps.front(), 10u);
  EXPECT_EQ(cps.back(), 100000u);
  for (std::size_t i = 1; i < cps.size(); ++i) EXPECT_GT(cps[i], cps[i - 1]);
  EXPECT_THROW(LogCheckpoints(10, 5, 100), std::invalid_argument);
}

TEST(LogCheckpointsTest, RoundingNeverEmitsCheckpointBeyondSteps) {
  // Regression: llround(exp(log(steps))) lands above `steps` for horizons
  // where exp/log rounding exceeds half a unit (e.g. 10^15 + 3 rounds to
  // 10^15 + 6).  The unclamped endpoint then broke strict ascent once
  // `steps` was appended, so SimulationConfig::Validate rejected every
  // schedule at those horizons.
  // The > 2^63 horizons additionally pin the conversion path: llround
  // would overflow long long there (unspecified result), so the clamp must
  // happen in the double domain.
  for (const std::uint64_t steps :
       {std::uint64_t{1000000000000003}, std::uint64_t{18014398509481985u},
        std::uint64_t{100000000000000000u},
        (std::uint64_t{1} << 63) + 12345u, ~std::uint64_t{0}}) {
    for (const std::size_t count : {std::size_t{2}, std::size_t{18}}) {
      const auto cps = LogCheckpoints(steps, count, 10);
      ASSERT_FALSE(cps.empty());
      EXPECT_EQ(cps.back(), steps);
      for (std::size_t i = 0; i < cps.size(); ++i) {
        EXPECT_LE(cps[i], steps);
        if (i > 0) {
          EXPECT_GT(cps[i], cps[i - 1]);
        }
      }
      // The schedule must satisfy the config contract it feeds.
      SimulationConfig config;
      config.steps = steps;
      config.checkpoints = cps;
      EXPECT_NO_THROW(config.Validate());
    }
  }
}

TEST(RunReplicationRangeTest, MinerOutOfRangeThrows) {
  // Regression: the public range entry point used to skip the bounds check
  // MonteCarloEngine::Run performs, handing direct callers UB via
  // initial_stakes[config.miner].
  const protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.miner = 2;  // only two miners below
  std::vector<double> out(ReplicationRowCount(config));
  EXPECT_THROW(RunReplicationRange(model, {0.2, 0.8}, config, 0, 1,
                                   out.data()),
               std::invalid_argument);
}

TEST(RunReplicationRangeTest, BadRangesThrow) {
  const protocol::PowModel model(0.01);
  const SimulationConfig config = SmallConfig();
  std::vector<double> out(ReplicationRowCount(config) * 4);
  EXPECT_THROW(RunReplicationRange(model, {0.2, 0.8}, config, 5, 3,
                                   out.data()),
               std::invalid_argument);
  EXPECT_THROW(RunReplicationRange(model, {0.2, 0.8}, config,
                                   config.replications - 1,
                                   config.replications + 1, out.data()),
               std::invalid_argument);
}

TEST(ReduceToResultTest, MinerOutOfRangeThrows) {
  SimulationConfig config = SmallConfig();
  config.miner = 5;
  const std::vector<double> lambdas(config.checkpoints.size() *
                                    config.replications);
  EXPECT_THROW(ReduceToResult("PoW", {0.2, 0.8}, config, FairnessSpec{},
                              lambdas, {}),
               std::invalid_argument);
}

TEST(ReduceToResultTest, PopulationMatrixSizeMismatchThrows) {
  SimulationConfig config = SmallConfig();
  const std::vector<double> lambdas(config.checkpoints.size() *
                                    config.replications);
  const std::vector<double> wrong_size(3);
  EXPECT_THROW(ReduceToResult("PoW", {0.2, 0.8}, config, FairnessSpec{},
                              lambdas, wrong_size),
               std::invalid_argument);
}

// The single reduction pass must give every statistic the bits of its own
// loop: Welford and the fair-band count over the λ column, one Kahan sum
// per population plane, in replication order.
TEST(ReduceToResultTest, OnePassMatchesPerChainReference) {
  SimulationConfig config = SmallConfig();
  config.replications = 997;
  const std::size_t reps = config.replications;
  const std::size_t cp_count = config.checkpoints.size();
  RngStream rng(31);
  std::vector<double> lambdas(cp_count * reps);
  for (double& v : lambdas) v = rng.NextDouble();
  // Magnitudes spread over ~30 binades so the Kahan compensation matters.
  std::vector<double> population(PopulationMatrixSize(config));
  for (double& v : population) {
    v = std::ldexp(rng.NextDouble(), static_cast<int>(rng.NextU64() % 30));
  }
  const FairnessSpec spec;
  const SimulationResult result = ReduceToResult(
      "PoW", {0.2, 0.8}, config, spec, lambdas, population);
  ASSERT_EQ(result.checkpoints.size(), cp_count);
  const double low = spec.FairLow(0.2);
  const double high = spec.FairHigh(0.2);
  for (std::size_t c = 0; c < cp_count; ++c) {
    const CheckpointStats& stats = result.checkpoints[c];
    RunningStats running;
    std::size_t outside = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      const double lambda = lambdas[c * reps + r];
      running.Add(lambda);
      if (lambda < low || lambda > high) ++outside;
    }
    EXPECT_EQ(stats.mean, running.Mean());
    EXPECT_EQ(stats.std_dev, running.StdDev());
    EXPECT_EQ(stats.min, running.Min());
    EXPECT_EQ(stats.max, running.Max());
    EXPECT_EQ(stats.unfair_probability,
              static_cast<double>(outside) / static_cast<double>(reps));
    const std::vector<double> column(
        lambdas.begin() + static_cast<std::ptrdiff_t>(c * reps),
        lambdas.begin() + static_cast<std::ptrdiff_t>((c + 1) * reps));
    EXPECT_EQ(stats.median, Quantile(column, 0.5));
    const double means[] = {stats.gini, stats.hhi, stats.nakamoto,
                            stats.top_decile_share};
    for (std::size_t metric = 0; metric < kPopulationMetricCount; ++metric) {
      KahanSum sum;
      for (std::size_t r = 0; r < reps; ++r) {
        sum.Add(population[(metric * cp_count + c) * reps + r]);
      }
      EXPECT_EQ(means[metric], sum.Total() / static_cast<double>(reps))
          << "metric " << metric << " checkpoint " << c;
    }
  }
}

TEST(MonteCarloEngineTest, PopulationMetricsRecordedWhenEnabled) {
  SimulationConfig config = SmallConfig();
  ASSERT_TRUE(config.population_metrics);  // on by default
  const MonteCarloEngine engine(config, FairnessSpec{});
  const protocol::MlPosModel model(0.01);
  const SimulationResult result = engine.Run(model, {0.2, 0.3, 0.5});
  for (const CheckpointStats& stats : result.checkpoints) {
    EXPECT_TRUE(std::isfinite(stats.gini));
    EXPECT_GE(stats.gini, 0.0);
    EXPECT_LT(stats.gini, 1.0);
    EXPECT_GE(stats.hhi, 1.0 / 3.0 - 1e-12);  // HHI >= 1/m
    EXPECT_LE(stats.hhi, 1.0);
    EXPECT_GE(stats.nakamoto, 1.0);
    EXPECT_LE(stats.nakamoto, 3.0);
    EXPECT_GE(stats.top_decile_share, 1.0 / 3.0 - 1e-9);
    EXPECT_LE(stats.top_decile_share, 1.0);
  }
}

TEST(MonteCarloEngineTest, PopulationMetricsNaNWhenDisabled) {
  SimulationConfig config = SmallConfig();
  config.population_metrics = false;
  const MonteCarloEngine engine(config, FairnessSpec{});
  const protocol::MlPosModel model(0.01);
  const SimulationResult result = engine.Run(model, {0.2, 0.8});
  for (const CheckpointStats& stats : result.checkpoints) {
    EXPECT_TRUE(std::isnan(stats.gini));
    EXPECT_TRUE(std::isnan(stats.hhi));
    EXPECT_TRUE(std::isnan(stats.nakamoto));
    EXPECT_TRUE(std::isnan(stats.top_decile_share));
  }
}

TEST(MonteCarloEngineTest, AutoCheckpointsWhenEmpty) {
  SimulationConfig config;
  config.steps = 50;
  config.replications = 10;
  MonteCarloEngine engine(config, FairnessSpec{});
  EXPECT_FALSE(engine.config().checkpoints.empty());
  EXPECT_EQ(engine.config().checkpoints.back(), 50u);
}

TEST(MonteCarloEngineTest, ResultShapeMatchesConfig) {
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  protocol::PowModel model(0.01);
  const SimulationResult result = engine.RunTwoMiner(model, 0.2);
  EXPECT_EQ(result.protocol, "PoW");
  EXPECT_DOUBLE_EQ(result.initial_share, 0.2);
  ASSERT_EQ(result.checkpoints.size(), 3u);
  EXPECT_EQ(result.checkpoints[0].step, 50u);
  EXPECT_EQ(result.checkpoints[2].step, 200u);
  EXPECT_EQ(result.final_lambdas.size(), 400u);
  EXPECT_EQ(result.Final().step, 200u);
}

TEST(MonteCarloEngineTest, DeterministicAcrossThreadCounts) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.threads = 1;
  MonteCarloEngine engine1(config, FairnessSpec{});
  config.threads = 4;
  MonteCarloEngine engine4(config, FairnessSpec{});
  const auto r1 = engine1.RunTwoMiner(model, 0.2);
  const auto r4 = engine4.RunTwoMiner(model, 0.2);
  ASSERT_EQ(r1.final_lambdas.size(), r4.final_lambdas.size());
  for (std::size_t i = 0; i < r1.final_lambdas.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.final_lambdas[i], r4.final_lambdas[i]);
  }
}

TEST(MonteCarloEngineTest, SameSeedSameResult) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  const auto r1 = engine.RunTwoMiner(model, 0.2);
  const auto r2 = engine.RunTwoMiner(model, 0.2);
  EXPECT_EQ(r1.final_lambdas, r2.final_lambdas);
}

TEST(MonteCarloEngineTest, DifferentSeedsDiffer) {
  protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  MonteCarloEngine e1(config, FairnessSpec{});
  config.seed = 8;
  MonteCarloEngine e2(config, FairnessSpec{});
  EXPECT_NE(e1.RunTwoMiner(model, 0.2).final_lambdas,
            e2.RunTwoMiner(model, 0.2).final_lambdas);
}

TEST(MonteCarloEngineTest, CheckpointStatsInternallyConsistent) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  const auto result = engine.RunTwoMiner(model, 0.2);
  for (const auto& cp : result.checkpoints) {
    EXPECT_LE(cp.min, cp.p05);
    EXPECT_LE(cp.p05, cp.p25);
    EXPECT_LE(cp.p25, cp.median);
    EXPECT_LE(cp.median, cp.p75);
    EXPECT_LE(cp.p75, cp.p95);
    EXPECT_LE(cp.p95, cp.max);
    EXPECT_GE(cp.unfair_probability, 0.0);
    EXPECT_LE(cp.unfair_probability, 1.0);
    EXPECT_GE(cp.mean, cp.min);
    EXPECT_LE(cp.mean, cp.max);
  }
}

TEST(MonteCarloEngineTest, PowStatisticsMatchBinomialTheory) {
  // At checkpoint n, n*lambda ~ Bin(n, a): verify mean and the unfair
  // probability against the exact binomial computation.
  protocol::PowModel model(1.0);
  SimulationConfig config;
  config.steps = 400;
  config.replications = 6000;
  config.seed = 11;
  config.checkpoints = {400};
  const FairnessSpec spec{0.1, 0.1};
  MonteCarloEngine engine(config, spec);
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto& cp = result.Final();
  EXPECT_NEAR(cp.mean, 0.2, 0.003);
  const double exact_unfair = 1.0 - math::PowDeltaExact(400, 0.2, 0.1);
  EXPECT_NEAR(cp.unfair_probability, exact_unfair, 0.025);
}

TEST(MonteCarloEngineTest, ConvergenceStepDetected) {
  // PoW with a = 0.2 converges within a few thousand blocks.
  protocol::PowModel model(0.01);
  SimulationConfig config;
  config.steps = 3000;
  config.replications = 1500;
  config.seed = 12;
  config.checkpoints = LinearCheckpoints(3000, 30);
  MonteCarloEngine engine(config, FairnessSpec{0.1, 0.1});
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto convergence = result.ConvergenceStep();
  ASSERT_TRUE(convergence.has_value());
  EXPECT_GT(*convergence, 400u);
  EXPECT_LT(*convergence, 2500u);
}

TEST(MonteCarloEngineTest, NoConvergenceReportedAsNullopt) {
  // ML-PoS at w = 0.1 never clears delta = 0.1 (limit Beta(2, 8)).
  protocol::MlPosModel model(0.1);
  SimulationConfig config;
  config.steps = 1000;
  config.replications = 1000;
  config.seed = 13;
  config.checkpoints = LinearCheckpoints(1000, 20);
  MonteCarloEngine engine(config, FairnessSpec{0.1, 0.1});
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_FALSE(result.ConvergenceStep().has_value());
}

TEST(MonteCarloEngineTest, ConvergenceRequiresStayingConverged) {
  // Construct a synthetic result where unfairness dips then rises: the
  // first dip must not count.
  SimulationResult result;
  result.spec = FairnessSpec{0.1, 0.1};
  CheckpointStats cp;
  cp.step = 10;
  cp.unfair_probability = 0.05;  // dips below delta
  result.checkpoints.push_back(cp);
  cp.step = 20;
  cp.unfair_probability = 0.5;   // rises again
  result.checkpoints.push_back(cp);
  cp.step = 30;
  cp.unfair_probability = 0.08;  // final convergence
  result.checkpoints.push_back(cp);
  const auto convergence = result.ConvergenceStep();
  ASSERT_TRUE(convergence.has_value());
  EXPECT_EQ(*convergence, 30u);
}

TEST(MonteCarloEngineTest, WithholdingConfigPlumbsThrough) {
  protocol::MlPosModel model(0.05);
  SimulationConfig config = SmallConfig();
  config.withhold_period = 100;
  MonteCarloEngine engine(config, FairnessSpec{});
  const auto result = engine.RunTwoMiner(model, 0.2);
  EXPECT_EQ(result.config.withhold_period, 100u);
  // Expectational fairness still holds under withholding.
  EXPECT_NEAR(result.Final().mean, 0.2, 0.03);
}

TEST(MonteCarloEngineTest, MinerIndexOutOfRangeThrows) {
  protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.miner = 5;
  MonteCarloEngine engine(config, FairnessSpec{});
  EXPECT_THROW(engine.Run(model, {0.2, 0.8}), std::invalid_argument);
}

TEST(MonteCarloEngineTest, TracksNonZeroMiner) {
  protocol::PowModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.miner = 1;
  MonteCarloEngine engine(config, FairnessSpec{});
  const auto result = engine.Run(model, {0.2, 0.8});
  EXPECT_DOUBLE_EQ(result.initial_share, 0.8);
  EXPECT_NEAR(result.Final().mean, 0.8, 0.02);
}

TEST(MonteCarloEngineTest, RunTwoMinerValidatesShare) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  EXPECT_THROW(engine.RunTwoMiner(model, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.RunTwoMiner(model, 1.0), std::invalid_argument);
}

TEST(MonteCarloEngineTest, ExpectationalReportConsistentForPow) {
  protocol::PowModel model(0.01);
  MonteCarloEngine engine(SmallConfig(), FairnessSpec{});
  const auto result = engine.RunTwoMiner(model, 0.2);
  const auto report = result.Expectational();
  EXPECT_TRUE(report.consistent);
  EXPECT_DOUBLE_EQ(report.target, 0.2);
}

TEST(MonteCarloEngineTest, FinalLambdasDroppedWhenRetentionOff) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  const auto with = MonteCarloEngine(config, FairnessSpec{})
                        .RunTwoMiner(model, 0.2);
  config.keep_final_lambdas = false;
  const auto without = MonteCarloEngine(config, FairnessSpec{})
                           .RunTwoMiner(model, 0.2);
  ASSERT_EQ(with.final_lambdas.size(), 400u);
  EXPECT_TRUE(without.final_lambdas.empty());
  // Retention only affects the retained vector, never the statistics.
  ASSERT_EQ(with.checkpoints.size(), without.checkpoints.size());
  for (std::size_t i = 0; i < with.checkpoints.size(); ++i) {
    EXPECT_EQ(with.checkpoints[i].mean, without.checkpoints[i].mean);
    EXPECT_EQ(with.checkpoints[i].p95, without.checkpoints[i].p95);
    EXPECT_EQ(with.checkpoints[i].unfair_probability,
              without.checkpoints[i].unfair_probability);
  }
  EXPECT_THROW(without.Expectational(), std::logic_error);
}

TEST(MonteCarloEngineTest, FinalLambdasKeepReplicationOrder) {
  // final_lambdas[r] must be replication r's λ (NOT a sorted copy — the
  // reduction sorts its scratch in place for quantiles).  Cross-check
  // against a direct single-replication RunReplicationRange.
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  const auto result =
      MonteCarloEngine(config, FairnessSpec{}).RunTwoMiner(model, 0.2);
  config.Validate();
  // A one-replication chunk: row c of its payload is checkpoint c's λ.
  std::vector<double> out(ReplicationRowCount(config));
  ReplicationWorkspace workspace;
  RunReplicationRange(model, {0.2, 0.8}, config, 7, 8, out.data(),
                      workspace);
  EXPECT_EQ(result.final_lambdas[7], out[config.checkpoints.size() - 1]);
}

// The chunk-local payload layout: λ rows then population planes, stride
// end - begin.  ScatterChunk places any partition of chunks into the same
// cell matrix, and a whole-range chunk's payload already is that matrix.
TEST(ScatterChunkTest, AnyPartitionFillsTheWholeRangeMatrix) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.Validate();
  ASSERT_TRUE(config.population_metrics);
  const std::size_t reps = static_cast<std::size_t>(config.replications);
  const std::size_t rows = ReplicationRowCount(config);
  ASSERT_EQ(rows, (1 + kPopulationMetricCount) * config.checkpoints.size());
  const std::vector<double> stakes = {0.2, 0.8};

  std::vector<double> whole(rows * reps);
  RunReplicationRange(model, stakes, config, 0, reps, whole.data());
  std::vector<double> split(rows * reps, -1.0);
  const std::vector<std::size_t> bounds = {0, 3, 150, 151, reps};
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    std::vector<double> payload(rows * (bounds[i + 1] - bounds[i]));
    RunReplicationRange(model, stakes, config, bounds[i], bounds[i + 1],
                        payload.data());
    ScatterChunk(payload, bounds[i], bounds[i + 1], reps, split.data());
  }
  EXPECT_EQ(whole, split);
  EXPECT_EQ(std::count(split.begin(), split.end(), -1.0), 0);
}

TEST(ReplicationWorkspaceTest, ReusedAcrossRangesWithIdenticalResults) {
  protocol::MlPosModel model(0.01);
  SimulationConfig config = SmallConfig();
  config.Validate();
  const std::vector<double> stakes = {0.2, 0.8};
  const std::size_t chunk = ReplicationRowCount(config) * 100;
  std::vector<double> fresh(4 * chunk, 0.0);
  std::vector<double> reused(4 * chunk, 0.0);
  // Reference: a fresh workspace per chunk.
  for (std::size_t begin = 0; begin < 400; begin += 100) {
    ReplicationWorkspace workspace;
    RunReplicationRange(model, stakes, config, begin, begin + 100,
                        fresh.data() + begin / 100 * chunk, workspace);
  }
  // One arena across all chunks (the per-worker steady state), plus a
  // rebind to a DIFFERENT cell in between to exercise reconfiguration.
  ReplicationWorkspace workspace;
  std::vector<double> other_cell(ReplicationRowCount(config), 0.0);
  for (std::size_t begin = 0; begin < 400; begin += 100) {
    RunReplicationRange(model, stakes, config, begin, begin + 100,
                        reused.data() + begin / 100 * chunk, workspace);
    RunReplicationRange(model, {0.5, 0.3, 0.2}, config, 0, 1,
                        other_cell.data(), workspace);
  }
  EXPECT_EQ(fresh, reused);
}

TEST(ReplicationWorkspaceTest, BindValidatesStakes) {
  ReplicationWorkspace workspace;
  EXPECT_THROW(workspace.population_meter(), std::logic_error);
  EXPECT_THROW(workspace.Bind({}, 0), std::invalid_argument);
  EXPECT_THROW(workspace.Bind({-1.0, 2.0}, 0), std::invalid_argument);
  workspace.Bind({0.2, 0.8}, 0);
  EXPECT_TRUE(workspace.bound());
  EXPECT_EQ(workspace.state().miner_count(), 2u);
}

}  // namespace
}  // namespace fairchain::core
