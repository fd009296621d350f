// Cross-validation property suite (referenced by the selfish-revenue
// oracle): the event-level selfish-mining kernel against the Eyal–Sirer
// closed form over the shared α × γ domain, the profitability threshold's
// sign behaviour on both sides of the crossing, and the majority-pool
// regime where the closed form deliberately refuses to evaluate.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "chain/chain_replication.hpp"
#include "core/monte_carlo.hpp"
#include "core/selfish_mining.hpp"
#include "support/rng.hpp"

namespace fairchain::chain {
namespace {

// Long-horizon single replications: the kernel's λ must land on the
// stationary revenue share everywhere on the α × γ grid.  Tolerance is
// statistical (one 500k-event path), far above the O(1/n) settle bias.
// A balanced fight forks far more often than a weak pool: at every γ the
// α = 0.45 path orphans more blocks than the α = 0.1 path.
TEST(SelfishCrossValidationTest, KernelMatchesClosedFormOverAlphaGammaGrid) {
  for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::uint64_t weak_orphans = 0;
    std::uint64_t strong_orphans = 0;
    for (const double alpha : {0.1, 0.2, 1.0 / 3.0, 0.4, 0.45, 0.5}) {
      ChainGameSpec spec;
      spec.dynamics = ChainDynamics::kSelfish;
      spec.alpha = alpha;
      spec.gamma = gamma;
      ChainGameState state;
      RngStream rng(static_cast<std::uint64_t>(alpha * 1e6 + gamma * 100));
      StepChainEvents(spec, state, rng, 500000);
      EXPECT_NEAR(state.Lambda(spec),
                  core::SelfishMiningRevenue(alpha, gamma), 0.01)
          << "alpha=" << alpha << " gamma=" << gamma;
      if (alpha == 0.1) weak_orphans = state.orphaned_blocks;
      if (alpha == 0.45) strong_orphans = state.orphaned_blocks;
    }
    EXPECT_GT(strong_orphans, weak_orphans) << "gamma=" << gamma;
  }
}

// The closed form must change sides of α exactly where the threshold says:
// R < α just below (1-γ)/(3-2γ), R > α just above it.
TEST(SelfishCrossValidationTest, ThresholdCrossingFlipsProfitabilitySign) {
  constexpr double kOffset = 0.04;
  for (const double gamma : {0.0, 0.25, 0.5, 0.75}) {
    const double threshold = core::SelfishMiningThreshold(gamma);
    const double below = threshold - kOffset;
    const double above = threshold + kOffset;
    ASSERT_GT(below, 0.0);
    ASSERT_LE(above, 0.5);
    EXPECT_LT(core::SelfishMiningRevenue(below, gamma), below)
        << "gamma=" << gamma;
    EXPECT_GT(core::SelfishMiningRevenue(above, gamma), above)
        << "gamma=" << gamma;
  }
  // γ = 1 degenerates: the threshold is 0, so every α profits.
  EXPECT_DOUBLE_EQ(core::SelfishMiningThreshold(1.0), 0.0);
  EXPECT_GT(core::SelfishMiningRevenue(0.05, 1.0), 0.05);
}

// The kernel must reproduce the same sign flip empirically: measurably
// below fair share under the threshold, measurably above it over.
TEST(SelfishCrossValidationTest, KernelCrossesThresholdEmpirically) {
  auto run = [](double alpha, double gamma) {
    ChainGameSpec spec;
    spec.dynamics = ChainDynamics::kSelfish;
    spec.alpha = alpha;
    spec.gamma = gamma;
    ChainGameState state;
    RngStream rng(31337);
    StepChainEvents(spec, state, rng, 500000);
    return state.Lambda(spec);
  };
  // γ = 0: threshold 1/3.
  EXPECT_LT(run(0.25, 0.0), 0.25 - 0.01);
  EXPECT_GT(run(0.42, 0.0), 0.42 + 0.01);
  // γ = 0.5: threshold 1/4.
  EXPECT_LT(run(0.18, 0.5), 0.18 - 0.005);
  EXPECT_GT(run(0.33, 0.5), 0.33 + 0.01);
}

// Replication-level agreement at campaign scale: the mean final λ over
// many independent replications of the checkpointed kernel must sit in
// the same band the selfish-revenue oracle claims (R ± 6/steps).
TEST(SelfishCrossValidationTest, ReplicatedMeanMatchesClosedFormBand) {
  const double alpha = 1.0 / 3.0;
  const double gamma = 0.5;
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kSelfish;
  spec.alpha = alpha;
  spec.gamma = gamma;
  core::SimulationConfig config;
  config.steps = 4000;
  config.replications = 400;
  config.seed = 20210620;
  config.checkpoints = core::LinearCheckpoints(4000, 8);
  const std::size_t cp = config.checkpoints.size();
  // One whole-range chunk: its first cp rows are the λ matrix.
  std::vector<double> lambda(ChainReplicationRowCount(config) * 400, 0.0);
  RunChainReplicationRange(spec, config, 0, 400, lambda.data());
  double sum = 0.0;
  for (std::size_t r = 0; r < 400; ++r) {
    sum += lambda[(cp - 1) * 400 + r];
  }
  const double mean = sum / 400.0;
  const double revenue = core::SelfishMiningRevenue(alpha, gamma);
  const double band = 6.0 / static_cast<double>(config.steps);
  EXPECT_GE(mean, revenue - band);
  EXPECT_LE(mean, revenue + band);
}

// Above α = 0.5 the two deliberately diverge: the closed form throws (its
// denominator changes sign), while the state machine stays well defined
// and the pool's share exceeds its hash share on any finite horizon.
TEST(SelfishCrossValidationTest, MajorityPoolSimulatedWhereFormulaThrows) {
  EXPECT_THROW(core::SelfishMiningRevenue(0.55, 0.5), std::invalid_argument);
  ChainGameSpec spec;
  spec.dynamics = ChainDynamics::kSelfish;
  spec.alpha = 0.55;
  spec.gamma = 0.5;
  ChainGameState state;
  RngStream rng(11);
  StepChainEvents(spec, state, rng, 200000);
  EXPECT_GT(state.Lambda(spec), 0.55);
}

}  // namespace
}  // namespace fairchain::chain
