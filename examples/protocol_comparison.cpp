// Protocol comparison: regenerates the paper's headline ranking
//   PoW >= C-PoS >= ML-PoS >= SL-PoS  (in fairness)
// across all implemented incentive mechanisms, including the Section 6.4
// extensions (NEO, Algorand, EOS) and the Section 6.2/6.3 remedies
// (FSL-PoS, reward withholding).
//
// Build & run:  ./build/example_protocol_comparison

#include <iostream>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/scenario_registry.hpp"
#include "support/table.hpp"

namespace {

// Where each mechanism comes from.
std::string Note(const fairchain::sim::CampaignCell& cell) {
  if (cell.protocol == "pow") return "Bitcoin-style";
  if (cell.protocol == "mlpos") return "Qtum/Blackcoin";
  if (cell.protocol == "slpos") return "NXT";
  if (cell.protocol == "cpos") return "Ethereum 2.0";
  if (cell.protocol == "fslpos") {
    return cell.withhold > 0 ? "Sec 6.3 remedy" : "Sec 6.2 remedy";
  }
  return "Sec 6.4";
}

}  // namespace

int main() {
  using namespace fairchain;

  // Figure 2's parameters (a = 0.2, w = 0.01, v = 0.1, P = 32) for every
  // mechanism, then FSL-PoS again with 1000-block reward withholding.
  sim::ScenarioSpec spec = sim::ScenarioRegistry::BuiltIn().Get("fig2");
  spec.protocols = {"pow",    "mlpos", "slpos",    "cpos",
                    "fslpos", "neo",   "algorand", "eos"};
  spec.steps = 3000;
  spec.replications = 2000;
  spec.seed = 1;
  sim::ScenarioSpec withheld = spec;
  withheld.protocols = {"fslpos"};
  withheld.withhold_periods = {1000};

  const sim::CampaignRunner runner;
  std::vector<sim::CellOutcome> outcomes = runner.Run(spec, {});
  for (sim::CellOutcome& outcome : runner.Run(withheld, {})) {
    outcomes.push_back(std::move(outcome));
  }

  Table table({"protocol", "note", "E[lambda]", "p5", "p95",
               "unfair prob", "expectational", "robust"});
  table.SetTitle(
      "Fairness comparison, a = 0.2, w = 0.01, v = 0.1, n = 3000, "
      "2000 replications, (eps, delta) = (0.1, 0.1)");

  for (const sim::CellOutcome& outcome : outcomes) {
    const auto& final_stats = outcome.result.Final();
    const auto expectational = outcome.result.Expectational();
    table.AddRow();
    table.Cell(outcome.cell.withhold > 0
                   ? outcome.result.protocol + "+withhold"
                   : outcome.result.protocol);
    table.Cell(Note(outcome.cell));
    table.Cell(final_stats.mean, 4);
    table.Cell(final_stats.p05, 4);
    table.Cell(final_stats.p95, 4);
    table.Cell(final_stats.unfair_probability, 3);
    // EOS / SL-PoS are designed to fail these checks (Sections 3.4, 6.4).
    table.Cell(std::string(expectational.consistent ? "yes" : "NO"));
    table.Cell(std::string(
        final_stats.unfair_probability <= spec.fairness.delta ? "yes"
                                                              : "NO"));
  }
  table.Print(std::cout);

  std::cout << "\nReading: `expectational` = E[lambda] == a;  `robust` = "
               "Pr[lambda outside +/-10% of a] <= 10%.\n"
               "The paper's ranking PoW >= C-PoS >= ML-PoS >= SL-PoS is "
               "visible in the `unfair prob` column.\n";
  return 0;
}
