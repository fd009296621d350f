// Protocol comparison: regenerates the paper's headline ranking
//   PoW >= C-PoS >= ML-PoS >= SL-PoS  (in fairness)
// across all implemented incentive mechanisms, including the Section 6.4
// extensions (NEO, Algorand, EOS) and the Section 6.2/6.3 remedies
// (FSL-PoS, reward withholding).
//
// Build & run:  ./build/examples/protocol_comparison

#include <iostream>
#include <memory>
#include <vector>

#include "core/experiments.hpp"
#include "core/monte_carlo.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/extensions.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "support/table.hpp"

int main() {
  using namespace fairchain;
  namespace exp = core::experiments;

  const double a = exp::kDefaultA;
  const core::FairnessSpec spec = exp::DefaultSpec();

  core::SimulationConfig config;
  config.steps = 3000;
  config.replications = 2000;
  config.seed = 1;

  struct Entry {
    std::string note;
    std::unique_ptr<protocol::IncentiveModel> model;
    std::uint64_t withhold = 0;
  };
  std::vector<Entry> entries;
  entries.push_back({"Bitcoin-style",
                     std::make_unique<protocol::PowModel>(exp::kDefaultW)});
  entries.push_back({"Qtum/Blackcoin",
                     std::make_unique<protocol::MlPosModel>(exp::kDefaultW)});
  entries.push_back({"NXT",
                     std::make_unique<protocol::SlPosModel>(exp::kDefaultW)});
  entries.push_back(
      {"Ethereum 2.0", std::make_unique<protocol::CPosModel>(
                           exp::kDefaultW, exp::kDefaultV,
                           exp::kDefaultShards)});
  entries.push_back({"Sec 6.2 remedy",
                     std::make_unique<protocol::FslPosModel>(exp::kDefaultW)});
  entries.push_back({"Sec 6.3 remedy",
                     std::make_unique<protocol::FslPosModel>(exp::kDefaultW),
                     1000});
  entries.push_back({"Sec 6.4",
                     std::make_unique<protocol::NeoModel>(exp::kDefaultW)});
  entries.push_back({"Sec 6.4",
                     std::make_unique<protocol::AlgorandModel>(
                         exp::kDefaultV)});
  entries.push_back({"Sec 6.4", std::make_unique<protocol::EosModel>(
                                    exp::kDefaultW, exp::kDefaultV)});

  Table table({"protocol", "note", "E[lambda]", "p5", "p95",
               "unfair prob", "expectational", "robust"});
  table.SetTitle(
      "Fairness comparison, a = 0.2, w = 0.01, v = 0.1, n = 3000, "
      "2000 replications, (eps, delta) = (0.1, 0.1)");

  for (const auto& entry : entries) {
    core::SimulationConfig entry_config = config;
    entry_config.withhold_period = entry.withhold;
    core::MonteCarloEngine engine(entry_config, spec);
    const auto result = engine.RunTwoMiner(*entry.model, a);
    const auto& final_stats = result.Final();
    const auto expectational = result.Expectational();
    table.AddRow();
    table.Cell(entry.withhold > 0 ? entry.model->name() + "+withhold"
                                  : entry.model->name());
    table.Cell(entry.note);
    table.Cell(final_stats.mean, 4);
    table.Cell(final_stats.p05, 4);
    table.Cell(final_stats.p95, 4);
    table.Cell(final_stats.unfair_probability, 3);
    // EOS / SL-PoS are designed to fail these checks (Sections 3.4, 6.4).
    table.Cell(std::string(expectational.consistent ? "yes" : "NO"));
    table.Cell(std::string(
        final_stats.unfair_probability <= spec.delta ? "yes" : "NO"));
  }
  table.Print(std::cout);

  std::cout << "\nReading: `expectational` = E[lambda] == a;  `robust` = "
               "Pr[lambda outside +/-10% of a] <= 10%.\n"
               "The paper's ranking PoW >= C-PoS >= ML-PoS >= SL-PoS is "
               "visible in the `unfair prob` column.\n";
  return 0;
}
