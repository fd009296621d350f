// Tests for the campaign runner: thread-count invariance, equivalence with
// the MonteCarloEngine on a single cell, ordered streaming emission, and
// the interleaved job plan that makes campaigns parallel across cells.

#include "sim/campaign.hpp"

#include <set>

#include <gtest/gtest.h>

#include "core/monte_carlo.hpp"
#include "protocol/model_factory.hpp"
#include "sim/result_sink.hpp"

namespace fairchain::sim {
namespace {

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.name = "small";
  spec.description = "small grid for tests";
  spec.protocols = {"pow", "mlpos"};
  spec.allocations = {0.2, 0.3};
  spec.steps = 200;
  spec.replications = 64;
  spec.seed = 7;
  spec.checkpoint_count = 4;
  return spec;
}

// Collects rows in arrival order.
class CollectSink : public ResultSink {
 public:
  void WriteRow(const CampaignRow& row) override { rows.push_back(row); }
  std::vector<CampaignRow> rows;
};

TEST(CampaignRunnerTest, RowsArriveInCellThenCheckpointOrder) {
  CampaignOptions options;
  options.threads = 4;
  CollectSink sink;
  const auto outcomes = CampaignRunner(options).Run(SmallSpec(), {&sink});
  EXPECT_EQ(outcomes.size(), 4u);
  ASSERT_EQ(sink.rows.size(), 4u * 4u);  // 4 cells x 4 checkpoints
  for (std::size_t i = 1; i < sink.rows.size(); ++i) {
    const bool cell_advances = sink.rows[i].cell > sink.rows[i - 1].cell;
    const bool checkpoint_advances =
        sink.rows[i].cell == sink.rows[i - 1].cell &&
        sink.rows[i].checkpoint == sink.rows[i - 1].checkpoint + 1;
    EXPECT_TRUE(cell_advances || checkpoint_advances) << "row " << i;
  }
}

TEST(CampaignRunnerTest, ResultsIdenticalForAnyThreadCount) {
  auto run = [](unsigned threads) {
    CampaignOptions options;
    options.threads = threads;
    CollectSink sink;
    CampaignRunner(options).Run(SmallSpec(), {&sink});
    return sink.rows;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cell, parallel[i].cell);
    EXPECT_EQ(serial[i].step, parallel[i].step);
    // Bitwise equality: the determinism contract, not a tolerance check.
    EXPECT_EQ(serial[i].mean, parallel[i].mean) << i;
    EXPECT_EQ(serial[i].p05, parallel[i].p05) << i;
    EXPECT_EQ(serial[i].unfair_probability, parallel[i].unfair_probability)
        << i;
  }
}

TEST(CampaignRunnerTest, SingleCellMatchesMonteCarloEngine) {
  ScenarioSpec spec = SmallSpec();
  spec.protocols = {"mlpos"};
  spec.allocations = {0.2};

  const auto outcomes = CampaignRunner().Run(spec, {});
  ASSERT_EQ(outcomes.size(), 1u);

  // The same cell through the engine directly, seeded with the cell seed.
  core::SimulationConfig config = CellConfig(spec, 0);
  config.threads = 1;
  core::MonteCarloEngine engine(config, spec.fairness);
  const auto model = protocol::MakeModel("mlpos", 0.01, 0.1, 32);
  const auto direct = engine.RunTwoMiner(*model, 0.2);

  ASSERT_EQ(outcomes[0].result.checkpoints.size(),
            direct.checkpoints.size());
  for (std::size_t c = 0; c < direct.checkpoints.size(); ++c) {
    EXPECT_EQ(outcomes[0].result.checkpoints[c].mean,
              direct.checkpoints[c].mean);
    EXPECT_EQ(outcomes[0].result.checkpoints[c].unfair_probability,
              direct.checkpoints[c].unfair_probability);
  }
}

TEST(CampaignRunnerTest, CellConfigPlumbsFinalLambdaRetention) {
  ScenarioSpec spec = SmallSpec();
  EXPECT_TRUE(CellConfig(spec, 0).keep_final_lambdas);
  spec.keep_final_lambdas = false;
  EXPECT_FALSE(CellConfig(spec, 0).keep_final_lambdas);
  const auto outcomes = CampaignRunner().Run(spec, {});
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.result.final_lambdas.empty());
  }
}

TEST(CampaignRunnerTest, CellSeedsAreDistinctAndIndexStable) {
  const std::uint64_t master = 20210620;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) seeds.insert(CellSeed(master, i));
  EXPECT_EQ(seeds.size(), 100u);
  // A cell's seed depends only on (master, index): growing the grid never
  // reseeds existing cells.
  EXPECT_EQ(CellSeed(master, 3), CellSeed(master, 3));
  EXPECT_NE(CellSeed(master, 3), CellSeed(master + 1, 3));
}

TEST(CampaignRunnerTest, PlanInterleavesAllCellsInOneBatch) {
  // Steps large enough that a single replication's modeled cost keeps the
  // per-chunk target above the 1 ms floor; the planner then splits each
  // cell into ~threads*4/cells chunks.
  ScenarioSpec spec = SmallSpec();
  spec.steps = 200000;
  CampaignOptions options;
  options.threads = 4;
  const auto jobs = CampaignRunner(options).PlanJobs(spec);
  // Every cell contributes multiple chunks to the single submitted batch,
  // so workers drain cells concurrently rather than serially.
  std::set<std::size_t> cells;
  std::size_t chunks_of_first = 0;
  for (const ChunkJob& job : jobs) {
    cells.insert(job.cell);
    if (job.cell == 0) ++chunks_of_first;
  }
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_GT(chunks_of_first, 1u);
  // Chunks tile [0, replications) exactly.
  std::size_t covered = 0;
  for (const ChunkJob& job : jobs) {
    if (job.cell == 0) covered += job.end - job.begin;
  }
  EXPECT_EQ(covered, 64u);
}

TEST(CampaignRunnerTest, TinyCellsNeverShatterBelowTheCostFloor) {
  // Degenerate case: cells so cheap that cost-proportional sizing would
  // produce sub-microsecond chunks.  The 1 ms minimum-cost floor collapses
  // each 200-step cell to a single chunk instead of shattering it into
  // per-replication slivers whose scheduling overhead dwarfs the work.
  CampaignOptions options;
  options.threads = 4;
  const auto jobs = CampaignRunner(options).PlanJobs(SmallSpec());
  ASSERT_EQ(jobs.size(), 4u);
  for (const ChunkJob& job : jobs) {
    EXPECT_EQ(job.begin, 0u);
    EXPECT_EQ(job.end, 64u);
    EXPECT_GT(job.cost_ns, 0.0);
  }
}

TEST(CampaignRunnerTest, PlanIsAPureFunctionOfSpecAndConcurrency) {
  // Running a campaign must not re-size the next plan of the same spec: no
  // state the run leaves behind in the process may reach the planner.  A
  // mixed-family spec (C-PoS, PoW and a selfish-mining race, ~30x apart
  // per step) gives the plan genuinely heterogeneous chunk costs.
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "name=plan-purity\n"
      "family=mixed\n"
      "protocols=cpos,pow,selfish\n"
      "a=0.3\n"
      "gamma=0.5\n"
      "steps=4000\n"
      "reps=64\n"
      "checkpoints=2\n");
  CampaignOptions options;
  options.threads = 4;
  const CampaignRunner runner(options);
  const std::vector<ChunkJob> before = runner.PlanJobs(spec);
  runner.Run(spec, {});
  const std::vector<ChunkJob> after = runner.PlanJobs(spec);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].cell, after[i].cell) << "chunk " << i;
    EXPECT_EQ(before[i].begin, after[i].begin) << "chunk " << i;
    EXPECT_EQ(before[i].end, after[i].end) << "chunk " << i;
    EXPECT_EQ(before[i].cost_ns, after[i].cost_ns) << "chunk " << i;
  }
}

TEST(CampaignRunnerTest, WithholdPeriodReachesTheSimulation) {
  ScenarioSpec spec = SmallSpec();
  spec.protocols = {"mlpos"};
  spec.allocations = {0.2};
  spec.withhold_periods = {0, 100};
  const auto outcomes = CampaignRunner().Run(spec, {});
  ASSERT_EQ(outcomes.size(), 2u);
  // Same seed split index differs per cell, so compare configs not values:
  // the withholding cell must carry the period into its SimulationConfig.
  EXPECT_EQ(outcomes[0].result.config.withhold_period, 0u);
  EXPECT_EQ(outcomes[1].result.config.withhold_period, 100u);
}

}  // namespace
}  // namespace fairchain::sim
