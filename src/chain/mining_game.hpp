// MiningGame: drives a mining engine to produce a full chain, validates it,
// and reduces it to the statistics the paper reports (λ per miner, block
// intervals).  RunReplicated mirrors the paper's repeated real-system
// experiments (10 runs for PoW, 500 for PoS) with per-replication genesis
// salts.

#ifndef FAIRCHAIN_CHAIN_MINING_GAME_HPP_
#define FAIRCHAIN_CHAIN_MINING_GAME_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/engines.hpp"
#include "chain/ledger.hpp"

namespace fairchain::chain {

/// Outcome of one simulated mining game.
struct GameResult {
  std::vector<std::uint64_t> blocks_by_miner;  ///< proposal counts
  std::vector<double> reward_fraction;         ///< λ per miner
  std::vector<double> final_stake_share;       ///< end-of-game stake shares
  double mean_block_interval = 0.0;            ///< simulated seconds
  std::uint64_t blocks = 0;
  ValidationReport validation;                 ///< full-chain re-verification
};

/// Factory producing a fresh engine per replication (engines are stateful).
using EngineFactory = std::function<std::unique_ptr<MiningEngine>()>;

/// Runs one game: mines `blocks` blocks from a salted genesis, appending to
/// a real Blockchain and re-validating it at the end.
GameResult RunMiningGame(MiningEngine& engine,
                         const std::vector<Amount>& initial_balances,
                         std::uint64_t blocks, std::uint64_t genesis_salt);

/// Runs `replications` independent games over
/// core::MakeDefaultBackend(threads) (distinct genesis salts derived from
/// `seed`) and returns miner `miner`'s λ from each.  Throws
/// std::invalid_argument before any game runs when `replications` is 0 or
/// `miner` does not index `initial_balances`, and std::runtime_error if any
/// game fails validation; that and any other exception a game throws reach
/// the caller at every thread count.
std::vector<double> ReplicatedRewardFractions(
    const EngineFactory& factory,
    const std::vector<Amount>& initial_balances, std::uint64_t blocks,
    std::uint64_t replications, std::uint64_t seed, MinerId miner,
    unsigned threads = 0);

}  // namespace fairchain::chain

#endif  // FAIRCHAIN_CHAIN_MINING_GAME_HPP_
