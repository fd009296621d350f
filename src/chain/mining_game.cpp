#include "chain/mining_game.hpp"

#include <stdexcept>

#include "core/monte_carlo.hpp"
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
  // One row: replication r's λ.  Its genesis salt derives from r alone, so
  // the chunking never shows in the output.
  return core::RunContiguousChunks(
      *core::MakeDefaultBackend(threads),
      static_cast<std::size_t>(replications), 1,
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> payload;
        payload.reserve(end - begin);
        for (std::size_t rep = begin; rep < end; ++rep) {
          const std::uint64_t salt = RngStream(seed).Split(rep).NextU64();
          auto engine = factory();
          const GameResult result =
              RunMiningGame(*engine, initial_balances, blocks, salt);
          if (!result.validation.ok) {
            throw std::runtime_error(
                "ReplicatedRewardFractions: chain validation failed: " +
                result.validation.error);
          }
          payload.push_back(result.reward_fraction[miner]);
        }
        return payload;
      });
}

}  // namespace fairchain::chain
