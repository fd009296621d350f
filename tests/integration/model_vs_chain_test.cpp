// Integration tests: the fast stake-evolution models and the hash-level
// chain engines must agree statistically — the "simulation matches the real
// system" leg of the paper's evaluation, with the chain substrate standing
// in for Geth / Qtum / NXT (see DESIGN.md).

#include <gtest/gtest.h>

#include "chain/mining_game.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "support/stats.hpp"

namespace fairchain {
namespace {

// Runs the fast model across replications and returns mean final lambda.
template <typename Model>
RunningStats FastModelLambda(const Model& model, double a,
                             std::uint64_t blocks, std::uint64_t reps) {
  RunningStats stats;
  const RngStream master(4242);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    protocol::StakeState state({a, 1.0 - a});
    RngStream rng = master.Split(rep);
    model.RunGame(state, rng, blocks);
    stats.Add(state.RewardFraction(0));
  }
  return stats;
}

RunningStats ToStats(const std::vector<double>& values) {
  RunningStats stats;
  for (const double v : values) stats.Add(v);
  return stats;
}

TEST(ModelVsChain, PowLambdaDistributionsAgree) {
  const std::uint64_t blocks = 120;
  const std::uint64_t reps = 150;
  // Chain level: miners with 20% / 80% of hash power grind real headers.
  chain::EngineFactory factory = [] {
    chain::PowEngineConfig config;
    config.hash_rates = {4, 16};
    config.block_reward = 1000;
    config.initial_expected_trials = 128.0;
    return std::make_unique<chain::PowEngine>(config);
  };
  const auto chain_lambdas = chain::ReplicatedRewardFractions(
      factory, {200, 800}, blocks, reps, 77, 0);
  const RunningStats chain_stats = ToStats(chain_lambdas);
  // Fast model at the same (a, n).
  protocol::PowModel model(1.0);
  const RunningStats model_stats = FastModelLambda(model, 0.2, blocks, 600);
  // Same mean (binomial a) and comparable spread (sd ~ sqrt(a(1-a)/n)).
  EXPECT_NEAR(chain_stats.Mean(), model_stats.Mean(), 0.02);
  EXPECT_NEAR(chain_stats.StdDev(), model_stats.StdDev(),
              0.5 * model_stats.StdDev());
}

TEST(ModelVsChain, MlPosLambdaDistributionsAgree) {
  const std::uint64_t blocks = 150;
  const std::uint64_t reps = 150;
  // w = 1% of initial circulation in both worlds.
  chain::EngineFactory factory = [] {
    chain::MlPosEngineConfig config;
    config.block_reward = 10000;
    config.target_spacing = 8;
    return std::make_unique<chain::MlPosEngine>(config);
  };
  const auto chain_lambdas = chain::ReplicatedRewardFractions(
      factory, {200000, 800000}, blocks, reps, 78, 0);
  const RunningStats chain_stats = ToStats(chain_lambdas);
  protocol::MlPosModel model(0.01);
  const RunningStats model_stats = FastModelLambda(model, 0.2, blocks, 600);
  EXPECT_NEAR(chain_stats.Mean(), model_stats.Mean(), 0.025);
  EXPECT_NEAR(chain_stats.StdDev(), model_stats.StdDev(),
              0.5 * model_stats.StdDev());
}

TEST(ModelVsChain, SlPosFirstBlockWinRateAgrees) {
  // The hash-level NXT lottery must reproduce Pr[A wins] = a / (2b) = 0.125.
  chain::SlPosEngineConfig config;
  config.block_reward = 10000;
  const int reps = 3000;
  int wins = 0;
  for (int rep = 0; rep < reps; ++rep) {
    chain::SlPosEngine engine(config);
    chain::StakeLedger ledger({200000, 800000});
    chain::Blockchain game_chain(static_cast<std::uint64_t>(rep) * 31 + 7);
    RngStream rng(static_cast<std::uint64_t>(rep));
    const chain::Block block = engine.MineNext(game_chain, ledger, rng);
    if (block.header.proposer == 0) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / reps, 0.125, 0.02);
}

TEST(ModelVsChain, FslPosFirstBlockWinRateAgrees) {
  // With the fair transform the win rate returns to a = 0.2.
  chain::SlPosEngineConfig config;
  config.block_reward = 10000;
  config.fair_transform = true;
  const int reps = 3000;
  int wins = 0;
  for (int rep = 0; rep < reps; ++rep) {
    chain::SlPosEngine engine(config);
    chain::StakeLedger ledger({200000, 800000});
    chain::Blockchain game_chain(static_cast<std::uint64_t>(rep) * 37 + 3);
    RngStream rng(static_cast<std::uint64_t>(rep));
    const chain::Block block = engine.MineNext(game_chain, ledger, rng);
    if (block.header.proposer == 0) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / reps, 0.2, 0.025);
}

TEST(ModelVsChain, SlPosChainGamesAlsoMonopolize) {
  // Theorem 4.9 observed at the hash level: after many blocks the poorer
  // miner's stake share collapses (power-law-slow, hence the 10% band).
  chain::SlPosEngineConfig config;
  config.block_reward = 50000;  // 5% of circulation: fast dynamics
  int collapsed = 0;
  const int reps = 40;
  for (int rep = 0; rep < reps; ++rep) {
    chain::SlPosEngine engine(config);
    const chain::GameResult result = chain::RunMiningGame(
        engine, {200000, 800000}, 1500, static_cast<std::uint64_t>(rep));
    ASSERT_TRUE(result.validation.ok);
    if (result.final_stake_share[0] < 0.1) ++collapsed;
  }
  EXPECT_GT(collapsed, 32);  // nearly all games collapse to the whale
}

TEST(ModelVsChain, CPosChainMatchesModelMean) {
  chain::EngineFactory factory = [] {
    chain::CPosEngineConfig config;
    config.proposer_reward = 10000;
    config.inflation_reward = 100000;
    config.shards = 32;
    return std::make_unique<chain::CPosEngine>(config);
  };
  const auto lambdas = chain::ReplicatedRewardFractions(
      factory, {200000, 800000}, 100, 120, 79, 0);
  const RunningStats stats = ToStats(lambdas);
  EXPECT_NEAR(stats.Mean(), 0.2, 0.01);
  // C-PoS at v = 10 w: very tight distribution.
  EXPECT_LT(stats.StdDev(), 0.02);
}

}  // namespace
}  // namespace fairchain
