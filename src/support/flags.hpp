// Minimal command-line flag parsing for the fairchain CLI.
//
// Supports `--name value` and `--name=value` long flags plus positional
// arguments; typed accessors with defaults and range validation.  No
// external dependencies, deliberately small.

#ifndef FAIRCHAIN_SUPPORT_FLAGS_HPP_
#define FAIRCHAIN_SUPPORT_FLAGS_HPP_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fairchain {

/// Parsed command line: positionals in order, flags by name.
class FlagSet {
 public:
  /// Parses argv-style input (excluding argv[0]).  Throws
  /// std::invalid_argument on a malformed flag (e.g. missing value).
  /// Flags named in `switches` are boolean and never consume the next
  /// token, so a positional may directly follow them
  /// (`--no-files table1` keeps "table1" positional).
  static FlagSet Parse(const std::vector<std::string>& args,
                       const std::vector<std::string>& switches = {});

  /// Convenience overload for main()'s argc/argv (skips argv[0]).
  static FlagSet Parse(int argc, const char* const argv[],
                       const std::vector<std::string>& switches = {});

  /// True when --name was supplied.
  bool Has(const std::string& name) const;

  /// String flag with default.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Double flag with default; throws std::invalid_argument when the
  /// supplied value does not parse.
  double GetDouble(const std::string& name, double fallback) const;

  /// Unsigned integer flag with default; throws on malformed values.
  std::uint64_t GetU64(const std::string& name,
                       std::uint64_t fallback) const;

  /// Boolean flag: present without value (or with "true"/"1") = true.
  bool GetBool(const std::string& name, bool fallback = false) const;

  /// Positional arguments in order.
  const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// Throws std::invalid_argument when any parsed flag is not in `allowed`,
  /// naming every offender and suggesting the closest allowed spelling
  /// ("unknown flag --rep (did you mean --reps?)").  Commands call this
  /// after parsing so a misspelled flag fails loudly instead of silently
  /// falling back to the default value.
  void RejectUnknown(const std::vector<std::string>& allowed) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positionals_;
};

/// The "did you mean" suggestion shared by the flag, backend and scenario
/// name parsers: the candidate closest to `name` by Levenshtein distance,
/// provided that distance is below `max_distance` (the first candidate wins
/// ties).  Returns an empty string when no candidate is that close.
std::string ClosestName(const std::string& name,
                        const std::vector<std::string>& candidates,
                        std::size_t max_distance);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_FLAGS_HPP_
