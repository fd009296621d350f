// Shared plumbing for bench binaries that are thin wrappers over registry
// scenarios: the figure/table binaries resolve their workload from the
// ScenarioRegistry and execute it through the CampaignRunner — the same
// code path `fairchain campaign` and the sim tests exercise — so a bench
// binary is just (scenario name, shape note).

#ifndef FAIRCHAIN_BENCH_CAMPAIGN_COMMON_HPP_
#define FAIRCHAIN_BENCH_CAMPAIGN_COMMON_HPP_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_registry.hpp"
#include "support/env.hpp"

namespace fairchain::bench {

/// Resolves a registry scenario and scales it for the current environment:
/// paper-scale by default, FAIRCHAIN_REPS overrides the replication count,
/// FAIRCHAIN_FAST selects a CI-sized run (shorter horizon, ~4% of reps).
inline sim::ScenarioSpec ScaledScenario(const std::string& name) {
  sim::ScenarioSpec spec = sim::ScenarioRegistry::BuiltIn().Get(name);
  if (FastModeEnabled()) {
    spec.steps = std::min<std::uint64_t>(spec.steps, 1000);
  }
  spec.replications = EnvReps(
      spec.replications,
      std::max<std::uint64_t>(100, spec.replications / 25));
  return spec;
}

/// Runs one scaled registry scenario through the campaign runner with the
/// standard sinks: summary table on stdout and, when FAIRCHAIN_CSV_DIR is
/// set, streaming CSV + JSONL files in that directory.  Returns the
/// per-cell outcomes for binaries that print extra legs.
inline std::vector<sim::CellOutcome> RunScenarioCampaign(
    const std::string& name) {
  const sim::ScenarioSpec spec = ScaledScenario(name);
  std::printf(
      "================================================================\n"
      "%s — %s\n"
      "%zu cells, horizon n = %llu, replications = %llu%s\n"
      "================================================================\n\n",
      spec.name.c_str(), spec.description.c_str(), spec.CellCount(),
      static_cast<unsigned long long>(spec.steps),
      static_cast<unsigned long long>(spec.replications),
      FastModeEnabled() ? "  [FAIRCHAIN_FAST]" : "");

  sim::FileSinks<sim::CampaignRow, sim::SummarySink> sinks(
      "campaign_" + name + "_summary");
  if (const auto dir = GetEnv("FAIRCHAIN_CSV_DIR")) {
    // Best-effort in the bench harness: an unwritable dir drops the file
    // sinks but keeps the stdout summary.
    sinks.OpenFiles(*dir + "/campaign_" + name + ".csv",
                    *dir + "/campaign_" + name + ".jsonl");
  }
  return sim::CampaignRunner().Run(spec, sinks.sinks());
}

}  // namespace fairchain::bench

#endif  // FAIRCHAIN_BENCH_CAMPAIGN_COMMON_HPP_
