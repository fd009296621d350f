#include "chain/mining_game.hpp"

#include <numeric>
#include <stdexcept>

#include "core/execution_backend.hpp"
#include "support/rng.hpp"

namespace fairchain::chain {

GameResult RunMiningGame(MiningEngine& engine,
                         const std::vector<Amount>& initial_balances,
                         std::uint64_t blocks, std::uint64_t genesis_salt) {
  StakeLedger ledger(initial_balances);
  Blockchain chain(genesis_salt);
  RngStream tie_break_rng(genesis_salt ^ 0x5DEECE66DULL);
  for (std::uint64_t i = 0; i < blocks; ++i) {
    const Block block = engine.MineNext(chain, ledger, tie_break_rng);
    chain.Append(block);
  }
  GameResult result;
  result.blocks = blocks;
  const std::size_t miners = ledger.miner_count();
  result.blocks_by_miner.resize(miners);
  result.reward_fraction.resize(miners);
  result.final_stake_share.resize(miners);
  for (MinerId m = 0; m < miners; ++m) {
    result.blocks_by_miner[m] = chain.BlocksBy(m);
    result.reward_fraction[m] = ledger.RewardFraction(m);
    result.final_stake_share[m] = ledger.Share(m);
  }
  result.mean_block_interval = chain.MeanBlockInterval();
  result.validation = chain.Validate();
  return result;
}

std::vector<double> ReplicatedRewardFractions(
    const EngineFactory& factory,
    const std::vector<Amount>& initial_balances, std::uint64_t blocks,
    std::uint64_t replications, std::uint64_t seed, MinerId miner,
    unsigned threads) {
  if (replications == 0) {
    throw std::invalid_argument(
        "ReplicatedRewardFractions: replications must be > 0");
  }
  if (miner >= initial_balances.size()) {
    throw std::invalid_argument(
        "ReplicatedRewardFractions: miner index out of range");
  }
  // One chunk per game, its payload that game's λ.  The genesis salt
  // derives from the replication index alone, so the backend never shows
  // in the output.
  std::vector<double> lambdas(static_cast<std::size_t>(replications));
  std::vector<std::size_t> order(lambdas.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  core::MakeDefaultBackend(threads)->Run(
      order,
      [&](std::size_t rep) {
        const std::uint64_t salt = RngStream(seed).Split(rep).NextU64();
        auto engine = factory();
        const GameResult result =
            RunMiningGame(*engine, initial_balances, blocks, salt);
        if (!result.validation.ok) {
          throw std::runtime_error(
              "ReplicatedRewardFractions: chain validation failed: " +
              result.validation.error);
        }
        return std::vector<double>{result.reward_fraction[miner]};
      },
      [&](std::size_t rep, std::vector<double>&& payload, std::uint64_t) {
        lambdas[rep] = payload[0];
      });
  return lambdas;
}

}  // namespace fairchain::chain
