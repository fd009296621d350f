// Tests for the chain-dynamics replication kernel: a pinned draw-for-draw
// golden of the selfish machine, segmentation and partition invariance
// (the determinism contract every backend relies on), the delay = 0
// fork-race collapse to iid block production, the orphan/reorg
// bookkeeping identities, and config validation.

#include "chain/chain_replication.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/monte_carlo.hpp"
#include "support/rng.hpp"

namespace fairchain::chain {
namespace {

TEST(ChainDynamicsNameTest, ParsesKnownAndRejectsUnknown) {
  EXPECT_TRUE(IsKnownChainDynamicsName("selfish"));
  EXPECT_TRUE(IsKnownChainDynamicsName("forkrace"));
  EXPECT_FALSE(IsKnownChainDynamicsName("longest-chain"));
  EXPECT_EQ(ParseChainDynamics("selfish"), ChainDynamics::kSelfish);
  EXPECT_EQ(ParseChainDynamics("forkrace"), ChainDynamics::kForkRace);
  EXPECT_THROW(ParseChainDynamics("ghost"), std::invalid_argument);
}

TEST(ChainGameSpecTest, ValidationRejectsOutOfRangeAndNaN) {
  ChainGameSpec spec;
  spec.alpha = 0.3;
  EXPECT_NO_THROW(spec.Validate());
  spec.alpha = 0.0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.alpha = 0.3;
  spec.gamma = 1.5;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.gamma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.gamma = 0.5;
  spec.delay = -0.1;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.delay = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(ChainGameStateTest, LambdaFallsBackToAlphaBeforeFirstAttribution) {
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kForkRace;
  spec.alpha = 0.37;
  ChainGameState state;
  EXPECT_DOUBLE_EQ(state.Lambda(spec), 0.37);
  EXPECT_DOUBLE_EQ(state.OrphanRate(), 0.0);
  EXPECT_DOUBLE_EQ(state.ReorgDepthMean(), 0.0);
}

// The selfish machine's exact counts after 50 000 events at seed
// 987654321, captured when a second, independent implementation of the
// Eyal–Sirer machine reproduced them draw for draw.  Any change to the
// draw order or the state transitions moves at least one of them.
struct SelfishGolden {
  double alpha;
  double gamma;
  std::uint64_t selfish_blocks;  // tracked_blocks + the settled lead
  std::uint64_t honest_blocks;
  std::uint64_t orphaned_blocks;
};

TEST(SelfishKernelTest, FullHorizonMatchesPinnedGoldenDrawForDraw) {
  constexpr std::uint64_t kEvents = 50000;
  const SelfishGolden goldens[] = {
      {0.15, 0.0, 3399, 40709, 5892},   {0.15, 0.5, 5454, 38670, 5876},
      {0.15, 1.0, 7489, 36619, 5892},   {0.30, 0.0, 10765, 28606, 10629},
      {0.30, 0.5, 12926, 26410, 10664}, {0.30, 1.0, 14995, 24376, 10629},
      {0.45, 0.0, 20871, 10637, 18492}, {0.45, 0.5, 21740, 9683, 18577},
      {0.45, 1.0, 22603, 8905, 18492},  {0.60, 0.0, 30090, 3, 19907},
      {0.60, 0.5, 30090, 3, 19907},     {0.60, 1.0, 30090, 3, 19907},
  };
  for (const SelfishGolden& golden : goldens) {
    ChainGameSpec spec;
    spec.dynamics = ChainDynamics::kSelfish;
    spec.alpha = golden.alpha;
    spec.gamma = golden.gamma;
    ChainGameState state;
    RngStream rng(987654321);
    StepChainEvents(spec, state, rng, kEvents);

    EXPECT_EQ(state.tracked_blocks + state.lead, golden.selfish_blocks)
        << "alpha=" << golden.alpha << " gamma=" << golden.gamma;
    EXPECT_EQ(state.other_blocks, golden.honest_blocks);
    EXPECT_EQ(state.orphaned_blocks, golden.orphaned_blocks);
    EXPECT_DOUBLE_EQ(
        state.Lambda(spec),
        static_cast<double>(golden.selfish_blocks) /
            static_cast<double>(golden.selfish_blocks + golden.honest_blocks));
    // Event conservation: every discovery is committed, orphaned, withheld
    // in the lead, or one of the two blocks of an open tie race.
    EXPECT_EQ(state.tracked_blocks + state.lead + state.other_blocks +
                  state.orphaned_blocks + (state.tie_race ? 2u : 0u),
              kEvents);
  }
}

// Segment invariance: N events in one call and in any split of N land in
// the same state having consumed the same draws — the property that lets
// checkpoints cut a replication anywhere.
TEST(ChainKernelTest, SegmentedSteppingIsDrawInvariant) {
  for (const bool selfish : {true, false}) {
    ChainGameSpec spec;
    spec.dynamics =
        selfish ? ChainDynamics::kSelfish : ChainDynamics::kForkRace;
    spec.alpha = 0.35;
    spec.gamma = 0.5;
    spec.delay = selfish ? 0.0 : 0.25;

    ChainGameState whole;
    RngStream whole_rng(4242);
    StepChainEvents(spec, whole, whole_rng, 10000);

    ChainGameState split;
    RngStream split_rng(4242);
    std::uint64_t stepped = 0;
    for (const std::uint64_t segment : {1u, 7u, 500u, 2492u, 7000u}) {
      StepChainEvents(spec, split, split_rng, segment);
      stepped += segment;
    }
    ASSERT_EQ(stepped, 10000u);

    EXPECT_EQ(whole.tracked_blocks, split.tracked_blocks);
    EXPECT_EQ(whole.other_blocks, split.other_blocks);
    EXPECT_EQ(whole.orphaned_blocks, split.orphaned_blocks);
    EXPECT_EQ(whole.events, split.events);
    EXPECT_EQ(whole.reorg_count, split.reorg_count);
    EXPECT_EQ(whole.reorg_depth_sum, split.reorg_depth_sum);
    EXPECT_EQ(whole.reorg_depth_max, split.reorg_depth_max);
    EXPECT_EQ(whole.lead, split.lead);
    EXPECT_EQ(whole.tie_race, split.tie_race);
    EXPECT_EQ(whole.phase, split.phase);
    EXPECT_EQ(whole.tracked_branch, split.tracked_branch);
    EXPECT_EQ(whole.other_branch, split.other_branch);
    // Both streams must sit at the same position: the split run consumed
    // exactly the same number of draws, not just reached the same state.
    EXPECT_EQ(whole_rng.NextU64(), split_rng.NextU64());
  }
}

// At delay = 0 no window ever catches a competitor: the fork-race model is
// iid proportional block production with zero orphans — the exact-binomial
// anchor the forkrace oracle pins.
TEST(ForkRaceKernelTest, ZeroDelayProducesNoForks) {
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kForkRace;
  spec.alpha = 0.3;
  spec.delay = 0.0;
  ChainGameState state;
  RngStream rng(7);
  StepChainEvents(spec, state, rng, 20000);
  EXPECT_EQ(state.orphaned_blocks, 0u);
  EXPECT_EQ(state.reorg_count, 0u);
  EXPECT_EQ(state.tracked_blocks + state.other_blocks, 20000u);
  EXPECT_EQ(state.events, 20000u);
  EXPECT_EQ(state.phase, ChainGameState::ForkPhase::kSynced);

  // Draw discipline: each event consumes exactly two Bernoulli draws
  // (owner, then the never-true fork window), so the tracked count can be
  // replayed by hand — this pins the stream layout backends depend on.
  ChainGameState replayed;
  RngStream replay(7);
  std::uint64_t tracked = 0;
  for (int event = 0; event < 20000; ++event) {
    if (replay.NextBernoulli(0.3)) ++tracked;
    replay.NextBernoulli(0.0);
  }
  EXPECT_EQ(state.tracked_blocks, tracked);
}

TEST(ForkRaceKernelTest, ReorgAccountingIdentitiesHold) {
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kForkRace;
  spec.alpha = 0.4;
  spec.delay = 1.5;  // wide window: frequent forks and long races
  ChainGameState state;
  RngStream rng(99);
  StepChainEvents(spec, state, rng, 50000);
  EXPECT_EQ(state.events, 50000u);
  EXPECT_GT(state.reorg_count, 0u);
  // Every orphan comes from exactly one resolved reorg discarding the
  // losing branch whole, so the totals must agree.
  EXPECT_EQ(state.reorg_depth_sum, state.orphaned_blocks);
  EXPECT_GE(state.reorg_depth_max, 1u);
  EXPECT_GE(static_cast<double>(state.reorg_depth_max),
            state.ReorgDepthMean());
  // Conservation: every event is committed, orphaned, or still racing.
  EXPECT_EQ(state.tracked_blocks + state.other_blocks +
                state.orphaned_blocks + state.tracked_branch +
                state.other_branch,
            state.events);
  EXPECT_DOUBLE_EQ(state.OrphanRate(),
                   static_cast<double>(state.orphaned_blocks) / 50000.0);
}

core::SimulationConfig SmallConfig() {
  core::SimulationConfig config;
  config.steps = 400;
  config.replications = 12;
  config.seed = 20210620;
  config.checkpoints = core::LinearCheckpoints(400, 4);
  return config;
}

// The backend contract in miniature: any partition of [0, replications)
// scatters into the matrix one whole-range chunk writes.
TEST(ChainReplicationRangeTest, PartitionInvariantMatrices) {
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kForkRace;
  spec.alpha = 0.25;
  spec.delay = 0.3;
  const core::SimulationConfig config = SmallConfig();
  const std::size_t rows = ChainReplicationRowCount(config);
  ASSERT_EQ(rows, (1 + kChainMetricCount) * config.checkpoints.size());

  std::vector<double> whole(rows * 12, 0.0);
  RunChainReplicationRange(spec, config, 0, 12, whole.data());

  std::vector<double> split(rows * 12, -1.0);
  const std::vector<std::size_t> bounds = {0, 5, 9, 12};
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    std::vector<double> payload(rows * (bounds[i + 1] - bounds[i]));
    RunChainReplicationRange(spec, config, bounds[i], bounds[i + 1],
                             payload.data());
    core::ScatterChunk(payload, bounds[i], bounds[i + 1], 12, split.data());
  }
  EXPECT_EQ(whole, split);
}

TEST(ChainReplicationRangeTest, RejectsBadRangesAndMissingCheckpoints) {
  ChainGameSpec spec;
  spec.alpha = 0.25;
  core::SimulationConfig config = SmallConfig();
  std::vector<double> out(ChainReplicationRowCount(config) * 12, 0.0);
  EXPECT_THROW(RunChainReplicationRange(spec, config, 0, 13, out.data()),
               std::invalid_argument);
  EXPECT_THROW(RunChainReplicationRange(spec, config, 5, 3, out.data()),
               std::invalid_argument);
  // A descending schedule would underflow the segment length into an
  // endless spin; a checkpoint past the horizon would simulate beyond it.
  config.checkpoints = {300, 100};
  EXPECT_THROW(RunChainReplicationRange(spec, config, 0, 12, out.data()),
               std::invalid_argument);
  config.checkpoints = {100, 900};
  EXPECT_THROW(RunChainReplicationRange(spec, config, 0, 12, out.data()),
               std::invalid_argument);
  config.checkpoints.clear();
  EXPECT_THROW(RunChainReplicationRange(spec, config, 0, 12, out.data()),
               std::invalid_argument);
}

TEST(ChainReplicationRangeTest, ReduceFillsCheckpointChainStats) {
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kForkRace;
  spec.alpha = 0.4;
  spec.delay = 0.5;
  const core::SimulationConfig config = SmallConfig();
  const std::size_t cp = config.checkpoints.size();
  // One whole-range chunk: its payload is the λ matrix followed by the
  // chain matrix.
  std::vector<double> out(ChainReplicationRowCount(config) * 12, 0.0);
  RunChainReplicationRange(spec, config, 0, 12, out.data());
  const std::span<const double> lambda(out.data(), cp * 12);
  const std::vector<double> chain(out.begin() + cp * 12, out.end());
  ASSERT_EQ(chain.size(), ChainMatrixSize(config));

  core::SimulationResult result = core::ReduceToResult(
      "forkrace", {0.4, 0.6}, config, core::FairnessSpec{0.1, 0.1}, lambda,
      {});
  ReduceChainMetrics(config, chain, result);
  for (const core::CheckpointStats& stats : result.checkpoints) {
    EXPECT_TRUE(std::isfinite(stats.orphan_rate));
    EXPECT_GE(stats.orphan_rate, 0.0);
    EXPECT_LE(stats.orphan_rate, 1.0);
    EXPECT_GE(stats.reorg_depth_mean, 0.0);
    EXPECT_GE(stats.reorg_depth_max, stats.reorg_depth_mean);
  }
  // A wide window at this scale virtually always produces some orphans.
  EXPECT_GT(result.checkpoints.back().orphan_rate, 0.0);

  // Size mismatches are loud, not silently misreduced.
  std::vector<double> truncated(chain.begin(), chain.end() - 1);
  EXPECT_THROW(ReduceChainMetrics(config, truncated, result),
               std::invalid_argument);
}

}  // namespace
}  // namespace fairchain::chain
