// Figure 6: "Evolution of λ_A ... under a = 0.2, w = 0.01" for the paper's
// two remedies — the real-system leg.  The paper modified NXT; here the
// SL-PoS chain engine runs with the fair transform enabled.  The model
// panels (FSL-PoS plain, and FSL-PoS with rewards taking effect at the next
// 1000-block boundary) are the registry scenario: `fairchain campaign fig6`.

#include <cstdint>
#include <cstdio>
#include <memory>

#include "chain/mining_game.hpp"
#include "support/stats.hpp"

int main() {
  using namespace fairchain;

  // Real-system analog: the NXT engine with the fair transform.
  const std::uint64_t reps = 200;
  const std::uint64_t blocks = 1000;
  const auto lambdas = chain::ReplicatedRewardFractions(
      [] {
        chain::SlPosEngineConfig c;
        c.block_reward = 10000;
        c.fair_transform = true;
        return std::make_unique<chain::SlPosEngine>(c);
      },
      {200000, 800000}, blocks, reps, 106, 0);
  RunningStats stats;
  for (const double l : lambdas) stats.Add(l);
  const auto qs = Quantiles(lambdas, {0.05, 0.95});
  std::printf(
      "real-system analog FSL-PoS/chain (n = %llu): mean %.4f, "
      "5th pct %.4f, 95th pct %.4f (%zu runs)\n",
      static_cast<unsigned long long>(blocks), stats.Mean(), qs[0], qs[1],
      lambdas.size());

  std::printf(
      "\nShape vs paper (a): mean back at 0.2 but band outside the fair "
      "area.\n`fairchain campaign fig6` adds panel (b): with withholding "
      "nearly all mass\ninside the fair area.\n");
  return 0;
}
