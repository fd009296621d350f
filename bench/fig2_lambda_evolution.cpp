// Figure 2: "Evolution of λ_A along with the number n of blocks under
// a = 0.2, w = 0.01 and v = 0.1" — the real-system leg.  The paper's green
// bars (Geth / Qtum / NXT on EC2) are substituted by the hash-level chain
// engines at the paper's smaller repeat counts.  The four model panels are
// the registry scenario: `fairchain campaign fig2`.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "chain/mining_game.hpp"
#include "support/stats.hpp"

namespace {

using namespace fairchain;

void PrintChainBar(const char* name, const std::vector<double>& lambdas) {
  RunningStats stats;
  for (const double l : lambdas) stats.Add(l);
  const auto qs = Quantiles(lambdas, {0.05, 0.95});
  std::printf(
      "  real-system analog %-14s: mean %.4f, 5th pct %.4f, 95th pct %.4f "
      "(%zu runs)\n",
      name, stats.Mean(), qs[0], qs[1], lambdas.size());
}

}  // namespace

int main() {
  using namespace fairchain;

  // Real-system analog: hash-level chain games (paper: 10 PoW / 500 PoS
  // repeats; we run 10 / 200).
  std::printf(
      "Real-system analog (hash-level chain substrate, n = 1000):\n");
  const std::uint64_t pow_reps = 10;
  const std::uint64_t pos_reps = 200;
  const std::uint64_t chain_blocks = 1000;

  PrintChainBar("PoW/chain",
                chain::ReplicatedRewardFractions(
                    [] {
                      chain::PowEngineConfig c;
                      c.hash_rates = {4, 16};
                      c.initial_expected_trials = 1024.0;
                      return std::make_unique<chain::PowEngine>(c);
                    },
                    {200, 800}, chain_blocks, pow_reps, 101, 0));
  PrintChainBar("ML-PoS/chain",
                chain::ReplicatedRewardFractions(
                    [] {
                      chain::MlPosEngineConfig c;
                      c.block_reward = 10000;
                      c.target_spacing = 16;
                      return std::make_unique<chain::MlPosEngine>(c);
                    },
                    {200000, 800000}, chain_blocks, pos_reps, 102, 0));
  PrintChainBar("SL-PoS/chain",
                chain::ReplicatedRewardFractions(
                    [] {
                      chain::SlPosEngineConfig c;
                      c.block_reward = 10000;
                      return std::make_unique<chain::SlPosEngine>(c);
                    },
                    {200000, 800000}, chain_blocks, pos_reps, 103, 0));
  PrintChainBar("C-PoS/chain",
                chain::ReplicatedRewardFractions(
                    [] {
                      chain::CPosEngineConfig c;
                      c.proposer_reward = 10000;
                      c.inflation_reward = 100000;
                      c.shards = 32;
                      return std::make_unique<chain::CPosEngine>(c);
                    },
                    {200000, 800000}, chain_blocks, pos_reps, 104, 0));

  std::printf(
      "\nShape vs paper: (a) PoW band narrows into the fair area past "
      "n~1000; (b) ML-PoS mean\nstays at 0.2 but the band never enters the "
      "fair area; (c) SL-PoS decays toward 0;\n(d) C-PoS is tightly "
      "concentrated inside the fair area.\n");
  return 0;
}
