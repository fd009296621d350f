#include "sim/scenario_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "chain/chain_replication.hpp"
#include "core/population.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/incentive_model.hpp"
#include "protocol/model_factory.hpp"

namespace fairchain::sim {

std::string FormatDouble(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "nan";
  return std::string(buffer, end);
}

namespace {

std::string Trim(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  std::istringstream stream(text);
  while (std::getline(stream, current, ',')) {
    current = Trim(current);
    if (!current.empty()) parts.push_back(current);
  }
  return parts;
}

double ParseDouble(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument("tail");
    return parsed;
  } catch (...) {
    throw std::invalid_argument("ScenarioSpec: " + key +
                                " expects a number, got '" + value + "'");
  }
}

std::uint64_t ParseU64(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const unsigned long long parsed = std::stoull(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument("tail");
    return static_cast<std::uint64_t>(parsed);
  } catch (...) {
    throw std::invalid_argument("ScenarioSpec: " + key +
                                " expects an integer, got '" + value + "'");
  }
}

std::vector<double> ParseDoubleList(const std::string& key,
                                    const std::string& value) {
  std::vector<double> parsed;
  for (const std::string& part : SplitCommas(value)) {
    parsed.push_back(ParseDouble(key, part));
  }
  if (parsed.empty()) {
    throw std::invalid_argument("ScenarioSpec: " + key + " must not be empty");
  }
  return parsed;
}

std::vector<std::uint64_t> ParseU64List(const std::string& key,
                                        const std::string& value) {
  std::vector<std::uint64_t> parsed;
  for (const std::string& part : SplitCommas(value)) {
    parsed.push_back(ParseU64(key, part));
  }
  if (parsed.empty()) {
    throw std::invalid_argument("ScenarioSpec: " + key + " must not be empty");
  }
  return parsed;
}

CheckpointSpacing ParseSpacing(const std::string& value) {
  if (value == "linear") return CheckpointSpacing::kLinear;
  if (value == "log") return CheckpointSpacing::kLog;
  throw std::invalid_argument(
      "ScenarioSpec: spacing expects linear|log, got '" + value + "'");
}

bool ParseOnOff(const std::string& key, const std::string& value) {
  if (value == "on") return true;
  if (value == "off") return false;
  throw std::invalid_argument("ScenarioSpec: " + key +
                              " expects on|off, got '" + value + "'");
}

template <typename T>
std::string JoinList(const std::vector<T>& values) {
  std::ostringstream out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ",";
    out << values[i];
  }
  return out.str();
}

// Doubles use the shortest-round-trip rendering so ToText output parses
// back to bitwise-identical values (plain operator<< truncates at 6
// significant digits).
std::string JoinDoubles(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += FormatDouble(values[i]);
  }
  return out;
}

// Applies one key=value assignment; shared by FromText and ApplyOverrides.
void Assign(ScenarioSpec& spec, const std::string& key,
            const std::string& value) {
  if (key == "name") {
    spec.name = value;
  } else if (key == "description") {
    spec.description = value;
  } else if (key == "family") {
    if (value == "incentive") {
      spec.family = ScenarioFamily::kIncentive;
    } else if (value == "chain") {
      spec.family = ScenarioFamily::kChain;
    } else if (value == "mixed") {
      spec.family = ScenarioFamily::kMixed;
    } else {
      throw std::invalid_argument(
          "ScenarioSpec: family expects incentive|chain|mixed, got '" +
          value + "'");
    }
  } else if (key == "gamma") {
    spec.gammas = ParseDoubleList(key, value);
  } else if (key == "delay") {
    spec.delays = ParseDoubleList(key, value);
  } else if (key == "protocols") {
    spec.protocols = SplitCommas(value);
  } else if (key == "miners") {
    spec.miner_counts.clear();
    for (const std::uint64_t m : ParseU64List(key, value)) {
      spec.miner_counts.push_back(static_cast<std::size_t>(m));
    }
  } else if (key == "whales") {
    spec.whale_counts.clear();
    for (const std::uint64_t m : ParseU64List(key, value)) {
      spec.whale_counts.push_back(static_cast<std::size_t>(m));
    }
  } else if (key == "a") {
    spec.allocations = ParseDoubleList(key, value);
  } else if (key == "w") {
    spec.rewards = ParseDoubleList(key, value);
  } else if (key == "v") {
    spec.inflations = ParseDoubleList(key, value);
  } else if (key == "shards") {
    spec.shard_counts.clear();
    for (const std::uint64_t p : ParseU64List(key, value)) {
      // Checked at full u64 width, before the narrowing store.
      protocol::ValidateShardCount(p, "ScenarioSpec: ");
      spec.shard_counts.push_back(static_cast<std::uint32_t>(p));
    }
  } else if (key == "withhold") {
    spec.withhold_periods = ParseU64List(key, value);
  } else if (key == "stakes") {
    spec.stake_dists = SplitCommas(value);
    // Fail at assignment time, matching the numeric keys' behaviour.
    for (const std::string& dist : spec.stake_dists) {
      ParseStakeDistribution(dist);
    }
    if (spec.stake_dists.empty()) {
      throw std::invalid_argument("ScenarioSpec: stakes must not be empty");
    }
  } else if (key == "population") {
    spec.population_metrics = ParseOnOff(key, value);
  } else if (key == "final_lambdas") {
    spec.keep_final_lambdas = ParseOnOff(key, value);
  } else if (key == "steps") {
    spec.steps = ParseU64(key, value);
  } else if (key == "reps") {
    spec.replications = ParseU64(key, value);
  } else if (key == "seed") {
    spec.seed = ParseU64(key, value);
  } else if (key == "checkpoints") {
    spec.checkpoint_count = static_cast<std::size_t>(ParseU64(key, value));
  } else if (key == "spacing") {
    spec.spacing = ParseSpacing(value);
  } else if (key == "eps") {
    spec.fairness.epsilon = ParseDouble(key, value);
  } else if (key == "delta") {
    spec.fairness.delta = ParseDouble(key, value);
  } else {
    throw std::invalid_argument("ScenarioSpec: unknown key '" + key + "'");
  }
}

}  // namespace

StakeDistribution ParseStakeDistribution(const std::string& text) {
  StakeDistribution dist;
  if (text == "split") return dist;
  const std::size_t colon = text.find(':');
  const std::string form = text.substr(0, colon);
  if (form != "pareto" && form != "zipf") {
    throw std::invalid_argument(
        "ScenarioSpec: stakes expects split|pareto:<alpha>|zipf:<s>, got '" +
        text + "'");
  }
  if (colon == std::string::npos || colon + 1 == text.size()) {
    throw std::invalid_argument("ScenarioSpec: '" + form +
                                "' stake distribution needs a parameter "
                                "(e.g. '" +
                                form + ":1.16')");
  }
  dist.parameter = ParseDouble("stakes", text.substr(colon + 1));
  if (form == "pareto") {
    dist.kind = StakeDistribution::Kind::kPareto;
    if (!(dist.parameter > 0.0)) {
      throw std::invalid_argument(
          "ScenarioSpec: pareto alpha must be > 0, got '" + text + "'");
    }
  } else {
    dist.kind = StakeDistribution::Kind::kZipf;
    if (!(dist.parameter >= 0.0)) {
      throw std::invalid_argument("ScenarioSpec: zipf s must be >= 0, got '" +
                                  text + "'");
    }
  }
  return dist;
}

std::vector<double> CampaignCell::Stakes() const {
  const StakeDistribution dist = ParseStakeDistribution(stake_dist);
  std::vector<double> stakes(miners);
  if (dist.kind == StakeDistribution::Kind::kSplit) {
    for (std::size_t i = 0; i < miners; ++i) {
      stakes[i] = i < whales
                      ? a / static_cast<double>(whales)
                      : (1.0 - a) / static_cast<double>(miners - whales);
    }
    return stakes;
  }
  const double m = static_cast<double>(miners);
  double total = 0.0;
  for (std::size_t i = 0; i < miners; ++i) {
    double value;
    if (dist.kind == StakeDistribution::Kind::kPareto) {
      // Deterministic mid-point quantiles of Pareto(alpha, x_m = 1),
      // richest first: the i-th stake is the (1 - (i+0.5)/m)-quantile
      // x = ((i + 0.5) / m)^(-1/alpha).
      value = std::pow((static_cast<double>(i) + 0.5) / m,
                       -1.0 / dist.parameter);
    } else {
      value = std::pow(static_cast<double>(i + 1), -dist.parameter);
    }
    stakes[i] = value;
    total += value;
  }
  // Normalise to a unit total so the reward parameters (w, v) keep their
  // paper interpretation relative to the initial resource pool.
  for (double& value : stakes) value /= total;
  // Extreme parameters (e.g. pareto alpha near 0) overflow pow() to inf and
  // normalise to NaN; fail here, on the thread that expanded the cell — a
  // NaN vector would otherwise first throw inside a worker job, where the
  // execution backends document that jobs must not throw.
  for (const double value : stakes) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument(
          "ScenarioSpec: stake distribution '" + stake_dist +
          "' is numerically degenerate at " + std::to_string(miners) +
          " miners (non-finite stake); use a less extreme parameter");
    }
  }
  return stakes;
}

std::string CampaignCell::Label() const {
  std::ostringstream out;
  if (chain_dynamics) {
    // Chain cells: only the parameters that matter to the dynamics.
    out << "dynamics=" << protocol << " a=" << a << " gamma=" << gamma
        << " delay=" << delay;
    return out.str();
  }
  out << "protocol=" << protocol << " miners=" << miners;
  if (whales != 1) out << " whales=" << whales;
  out << " a=" << a << " w=" << w << " v=" << v << " shards=" << shards;
  if (withhold != 0) out << " withhold=" << withhold;
  if (stake_dist != "split") out << " stakes=" << stake_dist;
  return out.str();
}

void ScenarioSpec::Validate() const {
  auto require = [](bool condition, const std::string& message) {
    if (!condition) throw std::invalid_argument("ScenarioSpec: " + message);
  };
  require(!name.empty(), "name must not be empty");
  for (const char c : name) {
    // The name is written verbatim into CSV fields and JSON strings; a
    // restricted alphabet keeps both formats valid without escaping.
    const bool allowed = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                         c == '.';
    require(allowed,
            "name may only contain letters, digits, '-', '_', '.' (got '" +
                name + "')");
  }
  require(!protocols.empty(), "protocols must not be empty");
  if (family == ScenarioFamily::kMixed) {
    // Mixed specs: each protocol token must resolve in exactly one of the
    // two (disjoint) namespaces, and the grid carries the chain family's
    // structural constraints — the chain cells are two-party games, and
    // the incentive cells must share their coordinates so one grid holds
    // both.  gamma/delay apply to the chain cells only and are pinned to
    // a single value each: incentive cells zero them out, so a second
    // gamma would mint duplicate incentive cells.
    for (const std::string& protocol : protocols) {
      require(chain::IsKnownChainDynamicsName(protocol) ||
                  protocol::IsKnownModelName(protocol),
              "unknown protocol '" + protocol +
                  "' (mixed family accepts incentive models and chain "
                  "dynamics names)");
    }
    require(miner_counts == std::vector<std::size_t>{2},
            "mixed family requires miners=2 (chain games are two-party)");
    require(whale_counts == std::vector<std::size_t>{1},
            "mixed family requires whales=1");
    require(withhold_periods == std::vector<std::uint64_t>{0},
            "mixed family does not support withholding (withhold=0)");
    require(stake_dists == std::vector<std::string>{"split"},
            "mixed family requires stakes=split (a is the hash share)");
    require(gammas.size() == 1,
            "mixed family requires a single gamma (chain cells only)");
    require(gammas[0] >= 0.0 && gammas[0] <= 1.0,
            "gamma must lie in [0, 1]");
    require(delays.size() == 1,
            "mixed family requires a single delay (chain cells only)");
    require(std::isfinite(delays[0]) && delays[0] >= 0.0,
            "delay must be finite and >= 0");
  } else if (family == ScenarioFamily::kChain) {
    // Chain-dynamics specs: protocols name chain kernels, gamma/delay are
    // live axes, and the incentive-only axes must sit at their defaults —
    // chain games are two-party (tracked share a vs the rest) with no
    // notion of whales, rewards, shards, or withholding.
    for (const std::string& protocol : protocols) {
      require(chain::IsKnownChainDynamicsName(protocol),
              "unknown chain dynamics '" + protocol +
                  "' (chain family expects selfish|forkrace)");
    }
    require(miner_counts == std::vector<std::size_t>{2},
            "chain family requires miners=2 (two-party games)");
    require(whale_counts == std::vector<std::size_t>{1},
            "chain family requires whales=1");
    require(withhold_periods == std::vector<std::uint64_t>{0},
            "chain family does not support withholding (withhold=0)");
    require(stake_dists == std::vector<std::string>{"split"},
            "chain family requires stakes=split (a is the hash share)");
    require(!gammas.empty(), "gamma must not be empty");
    for (const double gamma : gammas) {
      require(gamma >= 0.0 && gamma <= 1.0, "every gamma must lie in [0, 1]");
    }
    require(!delays.empty(), "delay must not be empty");
    for (const double delay : delays) {
      require(std::isfinite(delay) && delay >= 0.0,
              "every delay must be finite and >= 0");
    }
  } else {
    for (const std::string& protocol : protocols) {
      require(protocol::IsKnownModelName(protocol),
              "unknown protocol '" + protocol + "' (known: " +
                  protocol::KnownModelNameList() + ")");
    }
    // Keep the chain-only axes pinned at their defaults so incentive grids
    // never reindex (and ToText round-trips losslessly without emitting
    // the chain keys).
    require(gammas == std::vector<double>{0.0},
            "gamma is a chain-family axis (set family=chain)");
    require(delays == std::vector<double>{0.0},
            "delay is a chain-family axis (set family=chain)");
  }
  require(!miner_counts.empty(), "miners must not be empty");
  for (const std::size_t miners : miner_counts) {
    require(miners >= 2, "every miner count must be >= 2");
  }
  require(!whale_counts.empty(), "whales must not be empty");
  for (const std::size_t whales : whale_counts) {
    require(whales >= 1, "every whale count must be >= 1");
    for (const std::size_t miners : miner_counts) {
      require(whales < miners,
              "whale count must be < miner count so minnows exist");
    }
  }
  require(!allocations.empty(), "a must not be empty");
  for (const double a : allocations) {
    require(a > 0.0 && a < 1.0, "every a must lie in (0, 1)");
  }
  require(!rewards.empty(), "w must not be empty");
  for (const double w : rewards) {
    protocol::ValidateReward(w, "ScenarioSpec: w");
  }
  require(!inflations.empty(), "v must not be empty");
  for (const double v : inflations) {
    protocol::ValidateInflation(v, "ScenarioSpec: v");
  }
  require(!shard_counts.empty(), "shards must not be empty");
  for (const std::uint32_t shards : shard_counts) {
    protocol::ValidateShardCount(shards, "ScenarioSpec: ");
  }
  require(!withhold_periods.empty(), "withhold must not be empty");
  require(!stake_dists.empty(), "stakes must not be empty");
  for (const std::string& dist : stake_dists) {
    ParseStakeDistribution(dist);  // throws with a precise message
  }
  require(steps > 0, "steps must be > 0");
  require(replications > 0, "reps must be > 0");
  require(checkpoint_count > 0, "checkpoints must be > 0");
  // Bound each cell's matrices from above: CellConfig realises at most
  // min(steps, max(2, checkpoints)) checkpoints, and a cell records either
  // population planes or chain planes next to its λ plane.
  const std::uint64_t checkpoints_per_cell = std::min<std::uint64_t>(
      steps, std::max<std::uint64_t>(2, checkpoint_count));
  const std::uint64_t metric_planes = std::max<std::uint64_t>(
      population_metrics ? core::kPopulationMetricCount : 0,
      family == ScenarioFamily::kIncentive ? 0 : chain::kChainMetricCount);
  const std::string product =
      std::to_string(checkpoints_per_cell) + " checkpoints x " +
      std::to_string(replications) + " reps x " +
      std::to_string(1 + metric_planes) + " planes x 8 bytes";
  std::uint64_t matrix_bytes = 0;
  require(!__builtin_mul_overflow(checkpoints_per_cell, replications,
                                  &matrix_bytes) &&
              !__builtin_mul_overflow(
                  matrix_bytes, (1 + metric_planes) * sizeof(double),
                  &matrix_bytes),
          "cell matrices of " + product + " overflow 64 bits");
  require(matrix_bytes <= kMaxCellMatrixBytes,
          "cell matrices of " + product + " = " +
              std::to_string(matrix_bytes) + " bytes exceed the " +
              std::to_string(kMaxCellMatrixBytes) + "-byte per-cell limit");
  fairness.Validate();
}

std::size_t ScenarioSpec::CellCount() const {
  return protocols.size() * miner_counts.size() * whale_counts.size() *
         allocations.size() * rewards.size() * inflations.size() *
         shard_counts.size() * withhold_periods.size() * stake_dists.size() *
         gammas.size() * delays.size();
}

std::vector<CampaignCell> ScenarioSpec::ExpandCells() const {
  Validate();
  std::vector<CampaignCell> cells;
  cells.reserve(CellCount());
  for (const std::string& protocol : protocols) {
    for (const std::size_t miners : miner_counts) {
      for (const std::size_t whales : whale_counts) {
        for (const double a : allocations) {
          for (const double w : rewards) {
            for (const double v : inflations) {
              for (const std::uint32_t shards : shard_counts) {
                for (const std::uint64_t withhold : withhold_periods) {
                  for (const std::string& stake_dist : stake_dists) {
                    for (const double gamma : gammas) {
                      for (const double delay : delays) {
                        CampaignCell cell;
                        cell.index = cells.size();
                        cell.protocol = protocol;
                        cell.miners = miners;
                        cell.whales = whales;
                        cell.a = a;
                        cell.w = w;
                        cell.v = v;
                        cell.shards = shards;
                        cell.withhold = withhold;
                        cell.stake_dist = stake_dist;
                        // Mixed grids resolve the family per cell; the
                        // namespaces are disjoint (Validate rejects any
                        // token known to neither).
                        cell.chain_dynamics =
                            family == ScenarioFamily::kChain ||
                            (family == ScenarioFamily::kMixed &&
                             chain::IsKnownChainDynamicsName(protocol));
                        // Incentive cells carry no chain axes: zeroing
                        // them keeps their store preimages and labels
                        // identical to the same cell in a pure incentive
                        // spec.
                        cell.gamma = cell.chain_dynamics ? gamma : 0.0;
                        cell.delay = cell.chain_dynamics ? delay : 0.0;
                        cells.push_back(std::move(cell));
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

ScenarioSpec ScenarioSpec::FromText(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_number = 0;
  std::map<std::string, std::size_t> first_assignment;
  while (std::getline(stream, line)) {
    ++line_number;
    line = Trim(line);
    // Comments are whole lines only, so values (e.g. a description) may
    // contain '#'.
    if (line.empty() || line.front() == '#') continue;
    const std::size_t equals = line.find('=');
    if (equals == std::string::npos) {
      throw std::invalid_argument(
          "ScenarioSpec: line " + std::to_string(line_number) +
          " is not a key=value assignment: '" + line + "'");
    }
    const std::string key = Trim(line.substr(0, equals));
    // A repeated key is almost always an editing mistake; silently letting
    // the last assignment win would discard half the intended grid.
    const auto [it, inserted] = first_assignment.emplace(key, line_number);
    if (!inserted) {
      throw std::invalid_argument(
          "ScenarioSpec: duplicate key '" + key + "' on line " +
          std::to_string(line_number) + " (first assigned on line " +
          std::to_string(it->second) + ")");
    }
    Assign(spec, key, Trim(line.substr(equals + 1)));
  }
  return spec;
}

ScenarioSpec ScenarioSpec::FromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("ScenarioSpec: cannot read '" + path + "'");
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  // A directory opens "successfully" but reads nothing, as does an empty
  // or comment-only file; running the all-defaults campaign for any of
  // these would be the silent-fallback failure mode this layer exists to
  // prevent, so require at least one assignment line.
  bool has_assignment = false;
  {
    std::istringstream lines(contents.str());
    std::string line;
    while (std::getline(lines, line)) {
      line = Trim(line);
      if (!line.empty() && line.front() != '#') {
        has_assignment = true;
        break;
      }
    }
  }
  if (!has_assignment) {
    throw std::runtime_error("ScenarioSpec: '" + path +
                             "' is empty or not a readable spec file");
  }
  ScenarioSpec spec = FromText(contents.str());
  if (spec.name == "custom") {
    // Default the name to the file's basename so sinks and logs name it.
    std::string base = path;
    const std::size_t slash = base.find_last_of("/\\");
    if (slash != std::string::npos) base = base.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
    if (!base.empty()) spec.name = base;
  }
  return spec;
}

std::string ScenarioSpec::ToText() const {
  std::ostringstream out;
  out << "name=" << name << "\n";
  if (!description.empty()) out << "description=" << description << "\n";
  // Only chain specs emit the family/gamma/delay keys, keeping incentive
  // ToText output byte-identical to earlier revisions (pinned in tests and
  // embedded in stored campaign metadata).
  if (family == ScenarioFamily::kChain || family == ScenarioFamily::kMixed) {
    out << (family == ScenarioFamily::kChain ? "family=chain\n"
                                             : "family=mixed\n")
        << "gamma=" << JoinDoubles(gammas) << "\n"
        << "delay=" << JoinDoubles(delays) << "\n";
  }
  out << "protocols=" << JoinList(protocols) << "\n"
      << "miners=" << JoinList(miner_counts) << "\n"
      << "whales=" << JoinList(whale_counts) << "\n"
      << "a=" << JoinDoubles(allocations) << "\n"
      << "w=" << JoinDoubles(rewards) << "\n"
      << "v=" << JoinDoubles(inflations) << "\n"
      << "shards=" << JoinList(shard_counts) << "\n"
      << "withhold=" << JoinList(withhold_periods) << "\n"
      << "stakes=" << JoinList(stake_dists) << "\n"
      << "steps=" << steps << "\n"
      << "reps=" << replications << "\n"
      << "seed=" << seed << "\n"
      << "checkpoints=" << checkpoint_count << "\n"
      << "spacing="
      << (spacing == CheckpointSpacing::kLog ? "log" : "linear") << "\n"
      << "eps=" << FormatDouble(fairness.epsilon) << "\n"
      << "delta=" << FormatDouble(fairness.delta) << "\n"
      << "population=" << (population_metrics ? "on" : "off") << "\n"
      << "final_lambdas=" << (keep_final_lambdas ? "on" : "off") << "\n";
  return out.str();
}

void ScenarioSpec::ApplyOverrides(const FlagSet& flags) {
  for (const std::string& key : OverrideFlagNames()) {
    if (flags.Has(key)) Assign(*this, key, flags.GetString(key, ""));
  }
}

const std::vector<std::string>& ScenarioSpec::OverrideFlagNames() {
  static const std::vector<std::string> names = {
      "family",    "protocols",   "miners",  "whales", "a",
      "w",         "v",           "shards",  "withhold", "stakes",
      "gamma",     "delay",       "steps",   "reps",   "seed",
      "checkpoints", "spacing",   "eps",     "delta",  "population",
      "final_lambdas"};
  return names;
}

}  // namespace fairchain::sim
