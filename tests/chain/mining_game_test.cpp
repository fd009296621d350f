// Tests for the mining-game driver.

#include "chain/mining_game.hpp"

#include <gtest/gtest.h>

namespace fairchain::chain {
namespace {

EngineFactory MlFactory() {
  return [] {
    MlPosEngineConfig config;
    config.block_reward = 10000;
    config.target_spacing = 8;
    return std::make_unique<MlPosEngine>(config);
  };
}

TEST(MiningGameTest, RunsAndValidates) {
  MlPosEngineConfig config;
  config.block_reward = 10000;
  config.target_spacing = 8;
  MlPosEngine engine(config);
  const GameResult result = RunMiningGame(engine, {200000, 800000}, 50, 7);
  EXPECT_TRUE(result.validation.ok) << result.validation.error;
  EXPECT_EQ(result.blocks, 50u);
  EXPECT_EQ(result.blocks_by_miner[0] + result.blocks_by_miner[1], 50u);
  EXPECT_NEAR(result.reward_fraction[0] + result.reward_fraction[1], 1.0,
              1e-12);
  EXPECT_NEAR(result.final_stake_share[0] + result.final_stake_share[1], 1.0,
              1e-12);
  EXPECT_GT(result.mean_block_interval, 0.0);
}

TEST(MiningGameTest, DeterministicGivenSalt) {
  MlPosEngineConfig config;
  config.block_reward = 10000;
  config.target_spacing = 8;
  MlPosEngine e1(config), e2(config);
  const GameResult r1 = RunMiningGame(e1, {200000, 800000}, 40, 99);
  const GameResult r2 = RunMiningGame(e2, {200000, 800000}, 40, 99);
  EXPECT_EQ(r1.blocks_by_miner, r2.blocks_by_miner);
}

TEST(MiningGameTest, DifferentSaltsDiffer) {
  MlPosEngineConfig config;
  config.block_reward = 10000;
  config.target_spacing = 8;
  MlPosEngine e1(config), e2(config);
  const GameResult r1 = RunMiningGame(e1, {500000, 500000}, 60, 1);
  const GameResult r2 = RunMiningGame(e2, {500000, 500000}, 60, 2);
  EXPECT_NE(r1.blocks_by_miner, r2.blocks_by_miner);
}

TEST(ReplicatedTest, ReturnsOneLambdaPerReplication) {
  const auto lambdas =
      ReplicatedRewardFractions(MlFactory(), {200000, 800000}, 30, 20, 5, 0);
  EXPECT_EQ(lambdas.size(), 20u);
  for (const double lambda : lambdas) {
    EXPECT_GE(lambda, 0.0);
    EXPECT_LE(lambda, 1.0);
  }
}

TEST(ReplicatedTest, DeterministicAcrossThreadCounts) {
  const auto l1 = ReplicatedRewardFractions(MlFactory(), {200000, 800000},
                                            25, 16, 5, 0, /*threads=*/1);
  const auto l2 = ReplicatedRewardFractions(MlFactory(), {200000, 800000},
                                            25, 16, 5, 0, /*threads=*/4);
  EXPECT_EQ(l1, l2);
}

TEST(ReplicatedTest, MeanLambdaNearShareForMlPos) {
  const auto lambdas = ReplicatedRewardFractions(
      MlFactory(), {200000, 800000}, 60, 120, 11, 0);
  double mean = 0.0;
  for (const double l : lambdas) mean += l;
  mean /= static_cast<double>(lambdas.size());
  EXPECT_NEAR(mean, 0.2, 0.04);
}

// A game that throws (all-zero balances) reaches the caller on every
// thread count — on a pool worker too, instead of terminating the process.
TEST(ReplicatedTest, GameExceptionsReachTheCallerOnEveryThreadCount) {
  for (const unsigned threads : {1u, 2u}) {
    EXPECT_THROW(ReplicatedRewardFractions(MlFactory(), {0, 0}, 10, 4, 1, 0,
                                           threads),
                 std::invalid_argument)
        << threads << " thread(s)";
  }
}

TEST(ReplicatedTest, RejectsZeroReplications) {
  EXPECT_THROW(ReplicatedRewardFractions(MlFactory(), {1000, 1000}, 10, 0,
                                         1, 0),
               std::invalid_argument);
}

// A miner index past the balances would read beyond a game's
// reward_fraction on a worker; it fails on the calling thread instead.
TEST(ReplicatedTest, RejectsOutOfRangeMiner) {
  for (const unsigned threads : {1u, 2u}) {
    EXPECT_THROW(ReplicatedRewardFractions(MlFactory(), {200000, 800000}, 10,
                                           4, 1, /*miner=*/5, threads),
                 std::invalid_argument)
        << threads << " thread(s)";
    EXPECT_THROW(ReplicatedRewardFractions(MlFactory(), {200000, 800000}, 10,
                                           4, 1, /*miner=*/2, threads),
                 std::invalid_argument)
        << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace fairchain::chain
