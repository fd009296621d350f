// Whale vs. minnows: the multi-miner analysis of Section 6.1 / Table 1.
//
// One whale holds 20% of the network while the remaining stake is split
// equally among k minnows.  Under SL-PoS the outcome flips qualitatively
// with k: against one 80% competitor the whale is wiped out, against nine
// 8.9% minnows the whale monopolises — "reward depends not only on staking
// power but on the staking distribution of the competitors".
//
// Build & run:  ./build/example_whale_vs_minnows

#include <iostream>

#include "protocol/win_probability.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario_registry.hpp"
#include "support/table.hpp"

int main() {
  using namespace fairchain;

  const double a = 0.2;

  // First, the instantaneous view: the whale's probability of winning the
  // *next* block under SL-PoS (Lemma 6.1) as the competitor count grows.
  Table lottery({"miners", "whale share", "next-block win prob",
                 "proportional would be"});
  lottery.SetTitle("SL-PoS next-block win probability for the whale");
  for (const std::size_t miners : {2u, 3u, 4u, 5u, 10u, 20u}) {
    sim::CampaignCell cell;
    cell.miners = miners;
    cell.a = a;
    lottery.AddRow();
    lottery.Cell(static_cast<std::uint64_t>(miners));
    lottery.Cell(a, 2);
    lottery.Cell(protocol::SlPosMultiMinerWinProbability(cell.Stakes(), 0),
                 4);
    lottery.Cell(a, 4);
  }
  lottery.Print(std::cout);
  std::cout << "\nWith 5 equal miners the lottery is fair (0.2); with "
               "fewer the whale is under-served,\nwith more it is "
               "over-served — the Lemma 6.1 non-proportionality.\n\n";

  // Then the long-run view: full mining games, as the SL-PoS rows of the
  // table1 campaign at a smaller size.
  sim::ScenarioSpec spec = sim::ScenarioRegistry::BuiltIn().Get("table1");
  spec.protocols = {"slpos"};
  spec.steps = 8000;
  spec.replications = 400;
  spec.seed = 99;
  sim::SummarySink summary;
  sim::CampaignRunner().Run(spec, {&summary});
  std::cout << "2-4 miners: the whale is destroyed (avg lambda -> 0).  "
               "10 miners: the whale is the\nbiggest fish and monopolises "
               "(avg lambda -> 1).  Either way: no fairness.\n";
  return 0;
}
