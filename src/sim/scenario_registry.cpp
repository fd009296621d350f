#include "sim/scenario_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/flags.hpp"

namespace fairchain::sim {

namespace {

ScenarioRegistry BuildBuiltIns() {
  ScenarioRegistry registry;

  // --- Paper figures and Table 1 (Sections 5.1 / 5.2 parameters) --------
  {
    ScenarioSpec spec;
    spec.name = "fig1";
    spec.description =
        "SL-PoS drift at the Figure 1 highlighted shares (0.3 / 0.5 / 0.7)";
    spec.protocols = {"slpos"};
    spec.allocations = {0.3, 0.5, 0.7};
    spec.steps = 2000;
    spec.replications = 10000;
    spec.checkpoint_count = 40;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig2";
    spec.description =
        "Evolution of lambda_A for PoW/ML-PoS/SL-PoS/C-PoS at a=0.2";
    spec.protocols = {"pow", "mlpos", "slpos", "cpos"};
    spec.checkpoint_count = 60;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig3";
    spec.description =
        "Unfair probability vs n under allocations a in {0.1..0.4}";
    spec.protocols = {"pow", "mlpos", "slpos", "cpos"};
    spec.allocations = {0.1, 0.2, 0.3, 0.4};
    spec.checkpoint_count = 40;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig4a";
    spec.description =
        "SL-PoS mean lambda_A decay over 1e5 blocks, allocation sweep";
    spec.protocols = {"slpos"};
    spec.allocations = {0.1, 0.2, 0.3, 0.4, 0.5};
    spec.steps = 100000;
    spec.replications = 2000;
    spec.checkpoint_count = 18;
    spec.spacing = CheckpointSpacing::kLog;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig4b";
    spec.description =
        "SL-PoS mean lambda_A decay over 1e5 blocks, reward sweep at a=0.2";
    spec.protocols = {"slpos"};
    spec.rewards = {1e-4, 1e-3, 1e-2, 1e-1};
    spec.steps = 100000;
    spec.replications = 2000;
    spec.checkpoint_count = 18;
    spec.spacing = CheckpointSpacing::kLog;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig5";
    spec.description =
        "Unfair probability under block-reward sweeps (panels a-c)";
    spec.protocols = {"mlpos", "slpos", "cpos"};
    spec.rewards = {1e-4, 1e-3, 1e-2, 1e-1};
    spec.checkpoint_count = 40;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig5d";
    spec.description =
        "C-PoS unfair probability vs inflation v, sharded and unsharded";
    spec.protocols = {"cpos"};
    spec.inflations = {0.0, 0.01, 0.1};
    spec.shard_counts = {1, 32};
    spec.checkpoint_count = 40;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig6";
    spec.description =
        "FSL-PoS remedy, plain and with 1000-block reward withholding";
    spec.protocols = {"fslpos"};
    spec.withhold_periods = {0, 1000};
    spec.checkpoint_count = 60;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "table1";
    spec.description =
        "Multi-miner game: A holds 20%, the rest split 80% equally";
    spec.protocols = {"pow", "mlpos", "slpos", "cpos"};
    spec.miner_counts = {2, 3, 4, 5, 10};
    spec.steps = 20000;
    spec.replications = 4000;
    spec.checkpoint_count = 200;
    registry.Register(std::move(spec));
  }

  // --- New workloads beyond the paper -----------------------------------
  {
    ScenarioSpec spec;
    spec.name = "whale-sweep";
    spec.description =
        "Whale vs nine minnows: whale share swept from 5% to 50%";
    spec.protocols = {"pow", "mlpos", "slpos", "cpos"};
    spec.miner_counts = {10};
    spec.allocations = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5};
    spec.replications = 4000;
    spec.checkpoint_count = 25;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "multi-whale";
    spec.description =
        "1/2/5 whales jointly holding 40% against minnows sharing 60%";
    spec.protocols = {"mlpos", "slpos", "cpos"};
    spec.miner_counts = {10};
    spec.whale_counts = {1, 2, 5};
    spec.allocations = {0.4};
    spec.replications = 4000;
    spec.checkpoint_count = 25;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "withhold-grid";
    spec.description =
        "Reward-withholding period grid for ML-PoS and FSL-PoS (Sec. 6.3)";
    spec.protocols = {"mlpos", "fslpos"};
    spec.withhold_periods = {0, 100, 500, 1000, 2500};
    spec.replications = 6000;
    spec.checkpoint_count = 25;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "pareto-population";
    spec.description =
        "Heavy-tailed stake populations (Pareto 1.16 / Zipf 1.0): "
        "wealth-concentration trajectory at m=100 and m=1000";
    spec.protocols = {"pow", "mlpos", "fslpos"};
    spec.miner_counts = {100, 1000};
    spec.stake_dists = {"pareto:1.16", "zipf:1.0"};
    spec.steps = 3000;
    spec.replications = 400;
    spec.checkpoint_count = 12;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "large-population-sweep";
    spec.description =
        "Hot-path scale: Pareto populations from 100 to 100k miners "
        "(throughput scenario; population metrics off)";
    spec.protocols = {"pow", "mlpos"};
    spec.miner_counts = {100, 1000, 10000, 100000};
    spec.stake_dists = {"pareto:1.16"};
    spec.steps = 2000;
    spec.replications = 100;
    spec.checkpoint_count = 8;
    // An O(m + d log d) merge per (replication, checkpoint) would dominate
    // the O(log m) stepping this scenario exists to exercise; the
    // pareto-population scenario carries the concentration metrics.
    spec.population_metrics = false;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "committee";
    spec.description =
        "Committee-style protocols (NEO/Algorand/EOS) under growing "
        "committee sizes";
    spec.protocols = {"neo", "algorand", "eos"};
    spec.miner_counts = {4, 7, 21};
    spec.replications = 6000;
    spec.checkpoint_count = 25;
    registry.Register(std::move(spec));
  }

  // --- Chain-dynamics campaigns (fork/propagation/selfish scenarios) ----
  {
    ScenarioSpec spec;
    spec.name = "selfish-grid";
    spec.description =
        "Eyal-Sirer selfish mining over the alpha x gamma grid, judged "
        "against the closed-form revenue share";
    spec.family = ScenarioFamily::kChain;
    spec.protocols = {"selfish"};
    spec.allocations = {0.15, 0.3, 0.45};
    spec.gammas = {0.0, 0.5, 1.0};
    spec.steps = 4000;
    spec.replications = 2000;
    spec.checkpoint_count = 20;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "propagation-delay-sweep";
    spec.description =
        "Fork races under a propagation-delay sweep at a=0.3: the delay=0 "
        "cell is exactly Binomial, the rest pin orphan-rate/reorg-depth "
        "renewal forms and delay monotonicity";
    spec.family = ScenarioFamily::kChain;
    spec.protocols = {"forkrace"};
    spec.allocations = {0.3};
    spec.delays = {0.0, 0.05, 0.1, 0.2, 0.4};
    spec.steps = 5000;
    spec.replications = 2000;
    spec.checkpoint_count = 20;
    registry.Register(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "orphan-hashrate-sweep";
    spec.description =
        "Orphan-rate x hashrate-share sweep: fork races over minority, "
        "quarter, and symmetric shares at two delays";
    spec.family = ScenarioFamily::kChain;
    spec.protocols = {"forkrace"};
    spec.allocations = {0.1, 0.25, 0.5};
    spec.delays = {0.1, 0.3};
    spec.steps = 4000;
    spec.replications = 1500;
    spec.checkpoint_count = 20;
    registry.Register(std::move(spec));
  }

  // --- Scheduler workloads --------------------------------------------
  {
    ScenarioSpec spec;
    spec.name = "hetero-cost-mix";
    spec.description =
        "Deliberately imbalanced mixed-family grid (C-PoS epoch machine "
        "vs PoW vs selfish-mining chain cells, ~30x cost spread per "
        "replication) — the cost-aware scheduler benchmark workload";
    spec.family = ScenarioFamily::kMixed;
    spec.protocols = {"cpos", "pow", "selfish"};
    spec.allocations = {0.33};
    spec.gammas = {0.5};
    spec.steps = 3000;
    spec.replications = 96;
    spec.checkpoint_count = 10;
    spec.population_metrics = false;
    spec.keep_final_lambdas = false;
    registry.Register(std::move(spec));
  }

  return registry;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::BuiltIn() {
  static const ScenarioRegistry registry = BuildBuiltIns();
  return registry;
}

void ScenarioRegistry::Register(ScenarioSpec spec) {
  spec.Validate();
  if (Contains(spec.name)) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" +
                                spec.name + "'");
  }
  specs_.push_back(std::move(spec));
}

bool ScenarioRegistry::Contains(const std::string& name) const {
  for (const ScenarioSpec& spec : specs_) {
    if (spec.name == name) return true;
  }
  return false;
}

const ScenarioSpec& ScenarioRegistry::Get(const std::string& name) const {
  for (const ScenarioSpec& spec : specs_) {
    if (spec.name == name) return spec;
  }
  std::string known;
  for (const ScenarioSpec& spec : specs_) {
    if (!known.empty()) known += ", ";
    known += spec.name;
  }
  // Suggest the closest registered name when the typo is plausibly one:
  // within 3 edits, or sharing a prefix of at least 4 characters.
  std::string closest = ClosestName(name, Names(), 4);
  if (closest.empty() && name.size() >= 4) {
    for (const ScenarioSpec& spec : specs_) {
      if (spec.name.rfind(name.substr(0, 4), 0) == 0) {
        closest = spec.name;
        break;
      }
    }
  }
  std::string message =
      "ScenarioRegistry: unknown scenario '" + name + "'";
  if (!closest.empty()) message += " — did you mean '" + closest + "'?";
  message += " (known: " + known + ")";
  throw std::invalid_argument(message);
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const ScenarioSpec& spec : specs_) names.push_back(spec.name);
  return names;
}

}  // namespace fairchain::sim
