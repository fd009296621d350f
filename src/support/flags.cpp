#include "support/flags.hpp"

#include <algorithm>
#include <stdexcept>

namespace fairchain {

FlagSet FlagSet::Parse(const std::vector<std::string>& args,
                       const std::vector<std::string>& switches) {
  FlagSet set;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      set.positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      throw std::invalid_argument("FlagSet: bare '--' is not a flag");
    }
    const std::size_t equals = body.find('=');
    if (equals != std::string::npos) {
      set.flags_[body.substr(0, equals)] = body.substr(equals + 1);
      continue;
    }
    // `--name value` unless the flag is a declared switch or the next
    // token is another flag (then treat as boolean).
    const bool is_switch =
        std::find(switches.begin(), switches.end(), body) != switches.end();
    if (!is_switch && i + 1 < args.size() &&
        args[i + 1].rfind("--", 0) != 0) {
      set.flags_[body] = args[i + 1];
      ++i;
    } else {
      set.flags_[body] = "";
    }
  }
  return set;
}

FlagSet FlagSet::Parse(int argc, const char* const argv[],
                       const std::vector<std::string>& switches) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return Parse(args, switches);
}

bool FlagSet::Has(const std::string& name) const {
  return flags_.find(name) != flags_.end();
}

std::string FlagSet::GetString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double FlagSet::GetDouble(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("tail");
    return value;
  } catch (...) {
    throw std::invalid_argument("FlagSet: --" + name +
                                " expects a number, got '" + it->second +
                                "'");
  }
}

std::uint64_t FlagSet::GetU64(const std::string& name,
                              std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("tail");
    return static_cast<std::uint64_t>(value);
  } catch (...) {
    throw std::invalid_argument("FlagSet: --" + name +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

void FlagSet::RejectUnknown(const std::vector<std::string>& allowed) const {
  std::string errors;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), name) != allowed.end()) {
      continue;
    }
    if (!errors.empty()) errors += "; ";
    errors += "unknown flag --" + name;
    // Suggest only close misspellings.
    const std::string best = ClosestName(name, allowed, 3);
    if (!best.empty()) errors += " (did you mean --" + best + "?)";
  }
  if (!errors.empty()) throw std::invalid_argument("FlagSet: " + errors);
}

bool FlagSet::GetBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  return value.empty() || value == "1" || value == "true" || value == "yes";
}

std::string ClosestName(const std::string& name,
                        const std::vector<std::string>& candidates,
                        std::size_t max_distance) {
  std::string best;
  std::size_t best_distance = max_distance;
  std::vector<std::size_t> row;
  for (const std::string& candidate : candidates) {
    // Single-row Levenshtein: row[j] = distance(name[0, i), candidate[0, j)).
    row.resize(candidate.size() + 1);
    for (std::size_t j = 0; j <= candidate.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= name.size(); ++i) {
      std::size_t diagonal = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= candidate.size(); ++j) {
        const std::size_t substitute =
            diagonal + (name[i - 1] == candidate[j - 1] ? 0 : 1);
        diagonal = row[j];
        row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
      }
    }
    if (row[candidate.size()] < best_distance) {
      best_distance = row[candidate.size()];
      best = candidate;
    }
  }
  return best;
}

}  // namespace fairchain
