// Extension experiment (the paper's stated future work, Sections 6.5 / 8):
// selfish mining as an attack on PoW's expectational fairness.
//
// Reproduces the classic Eyal-Sirer revenue curve: the pool's revenue
// share vs its hash share alpha, for tie-propagation gamma in {0, 0.5, 1},
// from both the closed form and the chain-dynamics replication kernel the
// campaigns run, and reports the fairness threshold where honest PoW's
// E[lambda] = alpha breaks.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "chain/chain_replication.hpp"
#include "core/selfish_mining.hpp"

namespace {

using namespace fairchain;

// The pool's simulated revenue share: one replication of `events` block
// events through the selfish-mining kernel, read from the λ plane at its
// single checkpoint, where the kernel settles the private lead.
double SimulatedRevenueShare(double alpha, double gamma,
                             std::uint64_t events, std::uint64_t seed) {
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kSelfish;
  spec.alpha = alpha;
  spec.gamma = gamma;
  core::SimulationConfig config;
  config.steps = events;
  config.replications = 1;
  config.seed = seed;
  config.checkpoints = {events};
  // One replication, one checkpoint: the payload's first row is λ.
  std::vector<double> out(chain::ChainReplicationRowCount(config));
  chain::RunChainReplicationRange(spec, config, 0, 1, out.data());
  return out[0];
}

}  // namespace

int main() {
  const std::uint64_t events = FastModeEnabled() ? 200000 : 2000000;
  std::printf(
      "================================================================\n"
      "Extension — selfish mining vs PoW expectational fairness\n"
      "(%llu block events per cell)\n"
      "================================================================\n\n",
      static_cast<unsigned long long>(events));

  Table table({"alpha", "honest lambda", "g=0 formula", "g=0 simulated",
               "g=0.5 formula", "g=0.5 simulated", "g=1 formula",
               "g=1 simulated"});
  table.SetTitle(
      "Selfish-pool revenue share (> alpha means expectational fairness "
      "is broken)");
  for (int pct = 5; pct <= 50; pct += 5) {
    const double alpha = static_cast<double>(pct) / 100.0;
    table.AddRow();
    table.Cell(alpha, 2);
    table.Cell(alpha, 2);  // honest mining earns exactly alpha
    for (const double gamma : {0.0, 0.5, 1.0}) {
      table.Cell(core::SelfishMiningRevenue(alpha, gamma), 4);
      const auto seed = static_cast<std::uint64_t>(pct * 100 + gamma * 10);
      table.Cell(SimulatedRevenueShare(alpha, gamma, events, seed), 4);
    }
  }
  table.Emit("ext_selfish_mining");

  Table thresholds({"gamma", "profitability threshold alpha"});
  thresholds.SetTitle("Eyal-Sirer thresholds: alpha above which selfish "
                      "mining beats honest mining");
  for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    thresholds.AddRow();
    thresholds.Cell(gamma, 2);
    thresholds.Cell(core::SelfishMiningThreshold(gamma), 4);
  }
  thresholds.Emit("ext_selfish_thresholds");

  std::printf(
      "Above the threshold the pool's lambda exceeds alpha: PoW's "
      "Theorem 3.2 fairness is an\nhonest-behaviour property, exactly the "
      "attack surface the paper defers to future work.\n");
  return 0;
}
