// fairchain — command-line driver for the fairness-analysis library.
//
// Subcommands:
//   simulate   Monte Carlo campaign for one protocol
//              fairchain simulate --protocol mlpos --a 0.2 --w 0.01
//                  --n 5000 --reps 10000 [--v 0.1 --shards 32]
//                  [--withhold 1000] [--eps 0.1 --delta 0.1] [--seed 42]
//   campaign   run a registered scenario or a key=value spec file as a
//              batched multi-cell campaign with CSV + JSONL output
//              fairchain campaign table1 --reps 200
//              fairchain campaign my_scenario.spec --threads 8
//   scenarios  list the registered scenarios, or describe one
//              fairchain scenarios [name]
//   verify     run scenario(s) against their analytic oracles and report
//              per-cell statistical verdicts; exits non-zero on failure
//              fairchain verify table1 --reps 500
//              fairchain verify --all --reps 300 --steps 240
//   bound      analytic robust-fairness bounds at given parameters
//              fairchain bound --protocol pow --a 0.2 --n 5000
//   design     inverse use of the theorems: parameters achieving (eps,delta)
//              fairchain design --a 0.2 [--w 0.01 --shards 32]
//   winprob    next-block win probabilities for a stake vector
//              fairchain winprob --protocol slpos 0.1 0.3 0.6
//   version    print the build version and exit
//
// Unknown or misspelled flags are rejected with a suggestion (e.g. `--rep`
// names `--reps`) instead of silently running with defaults.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/bounds.hpp"
#include "core/equitability.hpp"
#include "core/execution_backend.hpp"
#include "core/experiments.hpp"
#include "core/monte_carlo.hpp"
#include "obs/export.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/model_factory.hpp"
#include "protocol/stake_state.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_registry.hpp"
#include "store/campaign_store.hpp"
#include "support/env.hpp"
#include "verify/verdict_sink.hpp"
#include "verify/verification_plan.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "support/version.hpp"

namespace {

using namespace fairchain;

int Usage() {
  std::fprintf(
      stderr,
      "usage: fairchain "
      "<simulate|campaign|scenarios|verify|bound|design|winprob|version> "
      "[flags]\n"
      "  simulate  --protocol pow|mlpos|slpos|cpos|fslpos|neo|algorand|eos\n"
      "            [--a 0.2] [--w 0.01] [--v 0.1] [--shards 32] [--n 5000]\n"
      "            [--reps 10000] [--withhold 0] [--eps 0.1] [--delta 0.1]\n"
      "            [--seed 20210620]\n"
      "  campaign  <name|spec-file> [--reps N] [--steps N] [--seed S]\n"
      "            [--threads T] [--backend serial|pool|shard:N]\n"
      "            [--csv FILE] [--jsonl FILE] [--no-files]\n"
      "            [--store DIR] [--resume] [--no-cache]\n"
      "            [--trace FILE] [--metrics FILE] [--progress]\n"
      "            [--protocols p1,p2] [--a 0.1,0.2] [--w ...] [--v ...]\n"
      "            [--miners ...] [--whales ...] [--shards ...]\n"
      "            [--withhold ...] [--checkpoints N] [--spacing linear|log]\n"
      "            [--eps E] [--delta D] [--final_lambdas on|off]\n"
      "            [--family incentive|chain|mixed] [--gamma 0,0.5,1] "
      "[--delay 0,0.1]\n"
      "  scenarios [name]   list registered scenarios grouped by family\n"
      "            (paper / population / chain-dynamics) / describe one\n"
      "  verify    <name|spec-file>|--all  [--reps N] [--steps N] [--seed S]\n"
      "            [--threads T] [--backend serial|pool|shard:N] [--alpha A]\n"
      "            [--csv FILE] [--jsonl FILE] [--no-files]\n"
      "            [--store DIR] [--resume] [--no-cache]\n"
      "            [--trace FILE] [--metrics FILE]\n"
      "            check scenario(s) against analytic oracles\n"
      "  bound     --protocol pow|mlpos|cpos [--a] [--w] [--v] [--shards] "
      "[--n]\n"
      "  design    [--a 0.2] [--w 0.01] [--shards 32] [--eps] [--delta]\n"
      "  winprob   --protocol slpos|proportional|<model> s1 s2 [s3 ...]\n"
      "  version   print the build version and exit\n");
  return 2;
}

// --shards is read at u64 width and checked against the proposer-slot cap
// before narrowing, so 2^32 + 32 fails instead of running as P = 32.
std::uint32_t ReadShards(const FlagSet& flags) {
  const std::uint64_t shards =
      flags.GetU64("shards", core::experiments::kDefaultShards);
  protocol::ValidateShardCount(shards, "--");
  return static_cast<std::uint32_t>(shards);
}

core::FairnessSpec ReadFairnessSpec(const FlagSet& flags) {
  const core::FairnessSpec spec{flags.GetDouble("eps", 0.1),
                                flags.GetDouble("delta", 0.1)};
  spec.Validate();
  return spec;
}

std::unique_ptr<protocol::IncentiveModel> MakeModel(const FlagSet& flags) {
  return protocol::MakeModel(
      flags.GetString("protocol", "mlpos"),
      flags.GetDouble("w", core::experiments::kDefaultW),
      flags.GetDouble("v", core::experiments::kDefaultV), ReadShards(flags));
}

int RunSimulate(const FlagSet& flags) {
  flags.RejectUnknown({"protocol", "a", "w", "v", "shards", "n", "reps",
                       "withhold", "eps", "delta", "seed"});
  const double a = flags.GetDouble("a", core::experiments::kDefaultA);
  const auto model = MakeModel(flags);
  core::SimulationConfig config;
  config.steps = flags.GetU64("n", core::experiments::kDefaultSteps);
  config.replications = flags.GetU64("reps", 10000);
  config.seed = flags.GetU64("seed", 20210620);
  config.withhold_period = flags.GetU64("withhold", 0);
  const core::FairnessSpec spec = ReadFairnessSpec(flags);
  core::MonteCarloEngine engine(config, spec);
  const auto result = engine.RunTwoMiner(*model, a);
  const auto& final_stats = result.Final();
  const auto expectational = result.Expectational();
  const auto equitability =
      core::ComputeEquitability(result.final_lambdas, a);

  Table table({"metric", "value"});
  table.SetTitle(result.protocol + ", a = " + std::to_string(a) + ", n = " +
                 std::to_string(config.steps));
  table.AddRow();
  table.Cell(std::string("mean lambda"));
  table.Cell(final_stats.mean, 4);
  table.AddRow();
  table.Cell(std::string("expectational fairness"));
  table.Cell(std::string(expectational.consistent ? "holds" : "VIOLATED"));
  table.AddRow();
  table.Cell(std::string("5th-95th percentile band"));
  table.Cell("[" + std::to_string(final_stats.p05) + ", " +
             std::to_string(final_stats.p95) + "]");
  table.AddRow();
  table.Cell(std::string("unfair probability"));
  table.Cell(final_stats.unfair_probability, 4);
  table.AddRow();
  table.Cell(std::string("robust (eps,delta)-fairness"));
  table.Cell(std::string(
      final_stats.unfair_probability <= spec.delta ? "holds" : "VIOLATED"));
  table.AddRow();
  table.Cell(std::string("convergence step"));
  table.Cell(core::experiments::FormatConvergence(result.ConvergenceStep()));
  table.AddRow();
  table.Cell(std::string("equitability (normalised variance)"));
  table.Cell(equitability.normalised_variance, 6);
  table.Emit("cli_simulate");
  return 0;
}

// Resolves a campaign/verify target to a spec: an argument with a path
// separator is always a file; otherwise the registry wins over a
// same-named file in the working directory (a stray local file must not
// silently substitute different parameters for a registered scenario);
// anything else is tried as a file and finally reported against the
// registry's known names.
sim::ScenarioSpec ResolveSpec(const std::string& target) {
  const sim::ScenarioRegistry& registry = sim::ScenarioRegistry::BuiltIn();
  const bool is_path = target.find('/') != std::string::npos ||
                       target.find('\\') != std::string::npos;
  if (is_path) return sim::ScenarioSpec::FromFile(target);
  if (registry.Contains(target)) return registry.Get(target);
  if (std::ifstream(target).good()) return sim::ScenarioSpec::FromFile(target);
  return registry.Get(target);  // throws, listing the known names
}

// Loud-failure contract for the output flags: --no-files makes --csv and
// --jsonl dead, so the combination is a user error, not a silent no-op.
bool RejectContradictoryFileFlags(const FlagSet& flags, const char* command) {
  if (flags.GetBool("no-files") &&
      (flags.Has("csv") || flags.Has("jsonl"))) {
    std::fprintf(stderr,
                 "%s: --csv/--jsonl have no effect with --no-files; drop "
                 "one side\n",
                 command);
    return false;
  }
  return true;
}

// Shared --store/--resume/--no-cache handling for campaign and verify.
// --resume and --no-cache are intent markers over --store DIR: --resume
// asks for cached cells to be served (the default with a store), --no-cache
// forces recomputation but still writes.  Both are user errors without
// --store, and they contradict each other.  Returns false after printing
// the error; on success `store` owns the opened store (null when no
// --store) and `options` is wired to it.
bool ConfigureStore(const FlagSet& flags, const char* command,
                    sim::CampaignOptions& options,
                    std::unique_ptr<store::CampaignStore>& store) {
  const bool resume = flags.GetBool("resume");
  const bool no_cache = flags.GetBool("no-cache");
  if (!flags.Has("store")) {
    if (resume || no_cache) {
      std::fprintf(stderr, "%s: --%s needs --store DIR to act on\n", command,
                   resume ? "resume" : "no-cache");
      return false;
    }
    return true;
  }
  if (resume && no_cache) {
    std::fprintf(stderr,
                 "%s: --resume serves cached cells, --no-cache refuses "
                 "them; drop one side\n",
                 command);
    return false;
  }
  store = std::make_unique<store::CampaignStore>(flags.GetString("store", ""));
  options.store = store.get();
  options.read_cache = !no_cache;
  return true;
}

// Arms span recording for --trace.  Must run before the campaign starts so
// every worker thread — and every forked shard worker, which inherits the
// flag and the trace epoch — records from the first chunk.
void ConfigureTracing(const FlagSet& flags) {
  if (!flags.Has("trace")) return;
  obs::TraceCollector::Global().Clear();
  obs::SetTraceEnabled(true);
}

// Writes the --trace / --metrics files and prints the observability
// summary table.  With neither flag the default output stays byte-for-byte
// what it was before the observability layer existed: nothing is written,
// nothing extra is printed.
int ExportObservability(const FlagSet& flags, const char* command) {
  const bool tracing = flags.Has("trace");
  const bool metrics = flags.Has("metrics");
  if (!tracing && !metrics) return 0;
  if (tracing) {
    obs::SetTraceEnabled(false);
    const std::string path = flags.GetString("trace", "");
    std::ofstream out(path, std::ios::trunc);
    if (out) obs::WriteChromeTrace(out);
    if (!out.good()) {
      std::fprintf(stderr, "%s: cannot write trace file '%s'\n", command,
                   path.c_str());
      return 1;
    }
    std::printf("wrote trace %s (load it in ui.perfetto.dev or "
                "chrome://tracing)\n",
                path.c_str());
  }
  if (metrics) {
    const std::string path = flags.GetString("metrics", "");
    std::ofstream out(path, std::ios::trunc);
    if (out) obs::WriteMetricsJsonl(out);
    if (!out.good()) {
      std::fprintf(stderr, "%s: cannot write metrics file '%s'\n", command,
                   path.c_str());
      return 1;
    }
    std::printf("wrote metrics %s\n", path.c_str());
  }
  std::printf("\n");
  obs::MetricsSummaryTable().Emit("observability_summary");
  return 0;
}

void PrintStoreStats(const store::CampaignStore* store) {
  if (store == nullptr) return;
  const store::StoreStats stats = store->stats();
  std::printf(
      "store %s: %llu hit(s), %llu miss(es), %llu corrupt, "
      "%llu version-mismatch(es), %llu write(s)\n",
      store->directory().c_str(),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.corrupt),
      static_cast<unsigned long long>(stats.version_mismatches),
      static_cast<unsigned long long>(stats.writes));
}

// --threads (default EnvThreads()), bounded like shard:<N> so a count
// that would wrap or mean "no workers" fails instead of reaching the banner.
unsigned ThreadsFlag(const FlagSet& flags, const std::string& command) {
  const std::uint64_t threads = flags.GetU64("threads", EnvThreads());
  if (threads == 0 || threads > core::kMaxWorkers) {
    throw std::invalid_argument(
        command + ": --threads must be in [1, " +
        std::to_string(core::kMaxWorkers) + "], got " +
        std::to_string(threads));
  }
  return static_cast<unsigned>(threads);
}

int RunCampaign(const FlagSet& flags) {
  std::vector<std::string> allowed = sim::ScenarioSpec::OverrideFlagNames();
  allowed.insert(allowed.end(),
                 {"threads", "backend", "csv", "jsonl", "no-files", "store",
                  "resume", "no-cache", "trace", "metrics", "progress"});
  flags.RejectUnknown(allowed);
  if (flags.positionals().size() < 2) {
    std::fprintf(stderr, "campaign: need a scenario name or spec file\n");
    return Usage();
  }
  if (!RejectContradictoryFileFlags(flags, "campaign")) return Usage();
  sim::ScenarioSpec spec = ResolveSpec(flags.positionals()[1]);
  spec.ApplyOverrides(flags);
  spec.Validate();

  sim::CampaignOptions options;
  options.threads = ThreadsFlag(flags, "campaign");
  std::unique_ptr<core::ExecutionBackend> backend;
  if (flags.Has("backend")) {
    backend = core::MakeBackend(flags.GetString("backend", "pool"),
                                options.threads);
    options.backend = backend.get();
  }
  std::unique_ptr<store::CampaignStore> store;
  if (!ConfigureStore(flags, "campaign", options, store)) return Usage();
  const sim::CampaignRunner runner(options);

  // Sinks: summary table on stdout, CSV + JSONL files unless --no-files.
  sim::CampaignFileSinks sinks(spec.name);
  std::string csv_path;
  std::string jsonl_path;
  if (!flags.GetBool("no-files")) {
    csv_path = flags.GetString("csv", "campaign_" + spec.name + ".csv");
    jsonl_path = flags.GetString("jsonl", "campaign_" + spec.name + ".jsonl");
    if (!sinks.OpenFiles(csv_path, jsonl_path)) {
      std::fprintf(stderr, "campaign: cannot open '%s' / '%s' for writing\n",
                   csv_path.c_str(), jsonl_path.c_str());
      return 1;
    }
  }

  std::printf(
      "campaign %s: %zu cells x %llu replications x %llu steps, "
      "%u threads, %s backend\n\n",
      spec.name.c_str(), spec.CellCount(),
      static_cast<unsigned long long>(spec.replications),
      static_cast<unsigned long long>(spec.steps), options.threads,
      backend != nullptr ? backend->name().c_str() : "default");

  ConfigureTracing(flags);
  obs::ProgressReporter::Options progress_options;
  progress_options.enabled = flags.GetBool("progress");
  progress_options.total_cells = spec.CellCount();
  progress_options.total_replications =
      static_cast<std::uint64_t>(spec.CellCount()) * spec.replications;

  const auto start = std::chrono::steady_clock::now();
  std::vector<sim::CellOutcome> outcomes;
  {
    obs::ProgressReporter progress(progress_options);
    outcomes = runner.Run(spec, sinks.sinks());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::size_t from_cache = 0;
  for (const sim::CellOutcome& outcome : outcomes) {
    if (outcome.from_cache) ++from_cache;
  }

  std::printf("\ncampaign %s finished in %.2fs", spec.name.c_str(), seconds);
  if (store != nullptr) {
    std::printf("; %zu/%zu cell(s) from cache", from_cache, outcomes.size());
  }
  if (!csv_path.empty()) {
    std::printf("; wrote %s and %s", csv_path.c_str(), jsonl_path.c_str());
  }
  std::printf("\n");
  PrintStoreStats(store.get());
  return ExportObservability(flags, "campaign");
}

int RunVerify(const FlagSet& flags) {
  std::vector<std::string> allowed = sim::ScenarioSpec::OverrideFlagNames();
  allowed.insert(allowed.end(),
                 {"threads", "backend", "csv", "jsonl", "no-files", "alpha",
                  "all", "store", "resume", "no-cache", "trace", "metrics"});
  flags.RejectUnknown(allowed);

  if (!RejectContradictoryFileFlags(flags, "verify")) return Usage();
  const sim::ScenarioRegistry& registry = sim::ScenarioRegistry::BuiltIn();
  std::vector<sim::ScenarioSpec> specs;
  if (flags.GetBool("all")) {
    if (flags.positionals().size() >= 2) {
      std::fprintf(stderr,
                   "verify: --all verifies every registered scenario; drop "
                   "'%s' or drop --all\n",
                   flags.positionals()[1].c_str());
      return Usage();
    }
    for (const std::string& name : registry.Names()) {
      specs.push_back(registry.Get(name));
    }
  } else if (flags.positionals().size() >= 2) {
    specs.push_back(ResolveSpec(flags.positionals()[1]));
  } else {
    std::fprintf(stderr,
                 "verify: need a scenario name, a spec file, or --all\n");
    return Usage();
  }

  verify::VerificationOptions options;
  options.campaign.threads = ThreadsFlag(flags, "verify");
  std::unique_ptr<core::ExecutionBackend> backend;
  if (flags.Has("backend")) {
    backend = core::MakeBackend(flags.GetString("backend", "pool"),
                                options.campaign.threads);
    options.campaign.backend = backend.get();
  }
  std::unique_ptr<store::CampaignStore> store;
  if (!ConfigureStore(flags, "verify", options.campaign, store)) {
    return Usage();
  }
  options.judge.family_alpha = flags.GetDouble("alpha", 1e-3);

  // A single user-supplied path cannot hold every scenario's verdicts: each
  // iteration would truncate the previous one's output.
  if (specs.size() > 1 && !flags.GetBool("no-files") &&
      (flags.Has("csv") || flags.Has("jsonl"))) {
    std::fprintf(stderr,
                 "verify: --csv/--jsonl cannot be combined with --all; "
                 "per-scenario verify_<name>.csv/.jsonl are written "
                 "(or pass --no-files)\n");
    return Usage();
  }

  ConfigureTracing(flags);
  std::size_t total_failures = 0;
  for (sim::ScenarioSpec& spec : specs) {
    spec.ApplyOverrides(flags);
    spec.Validate();
    const verify::VerificationPlan plan(std::move(spec));

    verify::VerdictFileSinks sinks(plan.spec().name);
    std::string csv_path;
    std::string jsonl_path;
    if (!flags.GetBool("no-files")) {
      csv_path =
          flags.GetString("csv", "verify_" + plan.spec().name + ".csv");
      jsonl_path =
          flags.GetString("jsonl", "verify_" + plan.spec().name + ".jsonl");
      if (!sinks.OpenFiles(csv_path, jsonl_path)) {
        std::fprintf(stderr, "verify: cannot open '%s' / '%s' for writing\n",
                     csv_path.c_str(), jsonl_path.c_str());
        return 1;
      }
    }

    // The exact threshold the judge will apply (VerifyCampaign builds the
    // same config from the plan's comparison count).
    verify::JudgeConfig banner_config = options.judge;
    banner_config.comparisons = plan.StochasticComparisons();
    std::printf(
        "verify %s: %zu cells (%zu oracle-covered), %zu stochastic "
        "comparisons, p threshold %.3g\n\n",
        plan.spec().name.c_str(), plan.cells().size(), plan.OracleCoverage(),
        plan.StochasticComparisons(), banner_config.Threshold());

    const verify::VerificationReport report =
        verify::VerifyCampaign(plan, options, sinks.sinks());

    std::printf("\nverify %s: %zu/%zu checks passed across %zu cells%s",
                report.scenario.c_str(), report.checks - report.failures,
                report.checks, report.cells,
                report.passed ? " — OK\n" : " — FAILURES\n");
    if (!csv_path.empty()) {
      std::printf("wrote %s and %s\n", csv_path.c_str(), jsonl_path.c_str());
    }
    std::printf("\n");
    total_failures += report.failures;
  }
  if (specs.size() > 1) {
    std::printf("verify --all: %zu scenario(s), %zu failing check(s)\n",
                specs.size(), total_failures);
  }
  PrintStoreStats(store.get());
  const int export_status = ExportObservability(flags, "verify");
  if (export_status != 0) return export_status;
  return total_failures == 0 ? 0 : 1;
}

// Display family for the scenarios listing.  Chain-dynamics scenarios
// carry their family in the spec; within the incentive family, the paper's
// own figures/tables (fig*, table1) are separated from the beyond-the-paper
// population workloads.
const char* ScenarioGroup(const sim::ScenarioSpec& spec) {
  if (spec.family == sim::ScenarioFamily::kChain) return "chain-dynamics";
  if (spec.name.rfind("fig", 0) == 0 || spec.name == "table1") return "paper";
  return "population";
}

int RunScenarios(const FlagSet& flags) {
  flags.RejectUnknown({});
  const sim::ScenarioRegistry& registry = sim::ScenarioRegistry::BuiltIn();
  if (flags.positionals().size() >= 2) {
    const sim::ScenarioSpec& spec =
        registry.Get(flags.positionals()[1]);
    std::printf("# %s — %s\n%s", spec.name.c_str(), spec.description.c_str(),
                spec.ToText().c_str());
    return 0;
  }
  // One table per family so the listing reads as a catalogue: the paper's
  // reproduction targets first, then the population workloads beyond the
  // paper, then the fork-aware chain-dynamics campaigns.
  for (const char* group : {"paper", "population", "chain-dynamics"}) {
    Table table(
        {"name", "cells", "protocols", "steps", "reps", "description"});
    table.SetTitle(std::string(group) +
                   " scenarios (run with: fairchain campaign <name>)");
    bool any = false;
    for (const std::string& name : registry.Names()) {
      const sim::ScenarioSpec& spec = registry.Get(name);
      if (std::string(ScenarioGroup(spec)) != group) continue;
      any = true;
      std::string protocols;
      for (const std::string& protocol : spec.protocols) {
        if (!protocols.empty()) protocols += ",";
        protocols += protocol;
      }
      table.AddRow();
      table.Cell(spec.name);
      table.Cell(static_cast<std::uint64_t>(spec.CellCount()));
      table.Cell(protocols);
      table.Cell(spec.steps);
      table.Cell(spec.replications);
      table.Cell(spec.description);
    }
    if (any) {
      table.Emit("cli_scenarios");
      std::printf("\n");
    }
  }
  return 0;
}

int RunBound(const FlagSet& flags) {
  flags.RejectUnknown(
      {"protocol", "a", "w", "v", "shards", "n", "eps", "delta"});
  const std::string name = flags.GetString("protocol", "pow");
  const double a = flags.GetDouble("a", core::experiments::kDefaultA);
  const double w = flags.GetDouble("w", core::experiments::kDefaultW);
  const double v = flags.GetDouble("v", core::experiments::kDefaultV);
  const std::uint32_t shards = ReadShards(flags);
  const std::uint64_t n = flags.GetU64("n", core::experiments::kDefaultSteps);
  const core::FairnessSpec spec = ReadFairnessSpec(flags);
  Table table({"quantity", "value"});
  if (name == "pow") {
    table.SetTitle("PoW bounds (Theorem 4.2)");
    table.AddRow();
    table.Cell(std::string("Hoeffding unfair upper bound"));
    table.Cell(core::PowUnfairUpperBound(n, a, spec.epsilon), 6);
    table.AddRow();
    table.Cell(std::string("exact unfair probability (binomial)"));
    table.Cell(1.0 - core::PowExactFairProbability(n, a, spec.epsilon), 6);
    table.AddRow();
    table.Cell(std::string("sufficient n (Theorem 4.2)"));
    table.Cell(core::PowSufficientBlocks(a, spec), 1);
  } else if (name == "mlpos") {
    table.SetTitle("ML-PoS bounds (Theorem 4.3 + Beta limit)");
    table.AddRow();
    table.Cell(std::string("Azuma unfair upper bound"));
    table.Cell(core::MlPosUnfairUpperBound(n, w, a, spec.epsilon), 6);
    table.AddRow();
    table.Cell(std::string("Beta-limit unfair probability"));
    table.Cell(core::MlPosLimitUnfairProbability(a, w, spec.epsilon), 6);
    table.AddRow();
    table.Cell(std::string("Theorem 4.3 condition satisfied"));
    table.Cell(std::string(
        core::MlPosSatisfiesBound(n, w, a, spec) ? "yes" : "no"));
  } else if (name == "cpos") {
    table.SetTitle("C-PoS bounds (Theorem 4.10)");
    table.AddRow();
    table.Cell(std::string("Azuma unfair upper bound"));
    table.Cell(core::CPosUnfairUpperBound(n, w, v, shards, a, spec.epsilon),
               6);
    table.AddRow();
    table.Cell(std::string("condition LHS"));
    table.CellSci(core::CPosConditionLhs(n, w, v, shards), 3);
    table.AddRow();
    table.Cell(std::string("condition RHS"));
    table.CellSci(core::AzumaConditionRhs(a, spec), 3);
    table.AddRow();
    table.Cell(std::string("Theorem 4.10 condition satisfied"));
    table.Cell(std::string(
        core::CPosSatisfiesBound(n, w, v, shards, a, spec) ? "yes" : "no"));
  } else {
    std::fprintf(stderr, "bound: unknown protocol '%s'\n", name.c_str());
    return Usage();
  }
  table.Emit("cli_bound");
  return 0;
}

int RunDesign(const FlagSet& flags) {
  flags.RejectUnknown({"a", "w", "shards", "eps", "delta"});
  const double a = flags.GetDouble("a", core::experiments::kDefaultA);
  const double w = flags.GetDouble("w", core::experiments::kDefaultW);
  const std::uint32_t shards = ReadShards(flags);
  const core::FairnessSpec spec = ReadFairnessSpec(flags);
  Table table({"protocol", "design rule", "value"});
  table.SetTitle("Parameters achieving (" + std::to_string(spec.epsilon) +
                 ", " + std::to_string(spec.delta) + ")-fairness at a = " +
                 std::to_string(a));
  table.AddRow();
  table.Cell(std::string("PoW"));
  table.Cell(std::string("minimum blocks (Thm 4.2)"));
  table.Cell(core::PowSufficientBlocks(a, spec), 1);
  table.AddRow();
  table.Cell(std::string("ML-PoS"));
  table.Cell(std::string("maximum block reward (Thm 4.3)"));
  table.CellSci(core::MlPosMaxRewardForFairness(a, spec), 3);
  table.AddRow();
  table.Cell(std::string("C-PoS"));
  table.Cell(std::string("minimum inflation at w, P (Thm 4.10)"));
  table.CellSci(core::CPosMinInflationForFairness(w, shards, a, spec), 3);
  table.Emit("cli_design");
  return 0;
}

// winprob's stake vector: every positional after the subcommand must be a
// whole finite number >= 0 ("0.3abc" is an error, not 0.3).  StakeState
// then requires a positive sum.
std::vector<double> ReadStakes(const FlagSet& flags) {
  std::vector<double> stakes;
  for (std::size_t i = 1; i < flags.positionals().size(); ++i) {
    const std::string& token = flags.positionals()[i];
    std::size_t consumed = 0;
    double stake = std::numeric_limits<double>::quiet_NaN();
    try {
      stake = std::stod(token, &consumed);
    } catch (const std::exception&) {
      // Not a number at all: `stake` stays NaN and fails below.
    }
    if (consumed != token.size() || !std::isfinite(stake) || stake < 0.0) {
      throw std::invalid_argument("winprob: stake '" + token +
                                  "' is not a finite number >= 0");
    }
    stakes.push_back(stake);
  }
  return stakes;
}

int RunWinProb(const FlagSet& flags) {
  flags.RejectUnknown({"protocol"});
  const std::string name = flags.GetString("protocol", "slpos");
  // "proportional" is the bare law; any other name must be a model, whose
  // own WinProbability answers (MakeModel rejects unknown names).
  std::unique_ptr<protocol::IncentiveModel> model;
  if (name != "proportional") {
    model = protocol::MakeModel(name, core::experiments::kDefaultW,
                                core::experiments::kDefaultV,
                                core::experiments::kDefaultShards);
  }
  const std::vector<double> stakes = ReadStakes(flags);
  if (stakes.size() < 2) {
    std::fprintf(stderr, "winprob: need at least two stakes\n");
    return Usage();
  }
  const protocol::StakeState state(stakes);
  Table table({"miner", "stake", "win probability", "proportional"});
  table.SetTitle(model ? model->name() + " next-block selection"
                       : "proportional selection");
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    table.AddRow();
    table.Cell(static_cast<std::uint64_t>(i));
    table.Cell(stakes[i], 4);
    table.Cell(model ? model->WinProbability(state, i) : state.StakeShare(i),
               6);
    table.Cell(state.StakeShare(i), 6);
  }
  table.Emit("cli_winprob");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Boolean switches must be declared so a following positional
    // (e.g. `campaign --no-files table1`) is not swallowed as a value.
    const FlagSet flags = FlagSet::Parse(
        argc, argv, {"no-files", "all", "resume", "no-cache", "progress"});
    if (flags.positionals().empty()) return Usage();
    const std::string& command = flags.positionals()[0];
    if (command == "simulate") return RunSimulate(flags);
    if (command == "campaign") return RunCampaign(flags);
    if (command == "scenarios") return RunScenarios(flags);
    if (command == "verify") return RunVerify(flags);
    if (command == "bound") return RunBound(flags);
    if (command == "design") return RunDesign(flags);
    if (command == "winprob") return RunWinProb(flags);
    if (command == "version") {
      flags.RejectUnknown({});
      std::printf("fairchain %s\n", kVersionString);
      return 0;
    }
    return Usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fairchain: %s\n", error.what());
    return 1;
  }
}
