// Hot-path benchmark (google-benchmark): ns/step of the Monte Carlo inner
// loop as a function of miner-population size m, per protocol — the repo's
// perf-trajectory baseline (BENCH_hotpath.json).
//
// BM_Batched_* measure the shipped execution core (compare
// items_per_second = steps/second): one virtual RunSteps call amortised
// over a whole segment — the single SteppedModel loop calling each model's
// Step directly (PoW / ML-PoS / SL-PoS inline it with the sampler descent
// and credit arm) — and zero steady-state allocation (verified by
// BM_ZeroAllocSteadyState* below).
// BM_Batched_FslPos runs the ML-PoS law under FSL-PoS's name.
//
// Populations are the pareto:1.16 heavy-tailed stakes of the
// large-population-sweep scenario, m ∈ {2, 10, 100, 1k, 10k, 100k}.
//
// Emit the JSON trajectory with:
//   bench_hotpath_bench --benchmark_out=BENCH_hotpath.json
//                       --benchmark_out_format=json
// tools/compare_hotpath_bench.py guards CI against >25% per-step
// regressions relative to the checked-in baseline.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "chain/chain_replication.hpp"
#include "core/execution_backend.hpp"
#include "core/monte_carlo.hpp"
#include "core/replication_workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/extensions.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "protocol/stake_state.hpp"
#include "sim/scenario_spec.hpp"
#include "support/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps it.
// BM_ZeroAllocSteadyState* snapshots it around the measured region to PROVE
// the zero-steady-state-allocation property of the workspace design, not
// just assert it in a comment.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The replaced operator new above is malloc-backed, so free() here IS the
// matched deallocator; gcc's -Wmismatched-new-delete cannot see that
// pairing once calls are inlined and flags it spuriously.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace fairchain;

std::vector<double> ParetoStakes(std::size_t miners) {
  sim::CampaignCell cell;
  cell.miners = miners;
  cell.stake_dist = "pareto:1.16";
  return cell.Stakes();
}

// Compounding protocols reset to the initial stakes every kGameSteps — the
// replication shape of real campaigns.  Without the reset the benchmark
// state drifts forever toward a degenerate single-winner distribution, so
// ns/step would depend on how many total iterations the harness happened
// to run (CI smoke runs and long local runs would measure different
// regimes).  16384 steps at w = 0.01 spans the whole realistic
// concentration range; the reset undoes only the miners the game credited,
// so it costs no more than the game did.  Static-stake protocols (PoW /
// NEO) have nothing to reset.
constexpr std::uint64_t kGameSteps = 16384;

// One benchmark iteration = one RunSteps segment — the shape the engine
// actually drives between checkpoints.  Compounding protocols run whole
// kGameSteps games from Reset; static ones step 1024-block segments.
constexpr std::uint64_t kBatchSteps = 1024;

void BatchedLoop(benchmark::State& bench_state,
                 const protocol::IncentiveModel& model, std::size_t miners) {
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  const bool reset_per_game = model.RewardCompounds();
  const std::uint64_t segment = reset_per_game ? kGameSteps : kBatchSteps;
  for (auto _ : bench_state) {
    if (reset_per_game) state.Reset();
    model.RunSteps(state, state.step(), segment, rng);
  }
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(segment)));
}

// --- batched execution core (the shipped hot path) --------------------------

void BM_Batched_PoW(benchmark::State& state) {
  BatchedLoop(state, protocol::PowModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_PoW)->RangeMultiplier(10)->Range(2, 100000);

void BM_Batched_MlPos(benchmark::State& state) {
  BatchedLoop(state, protocol::MlPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_MlPos)->RangeMultiplier(10)->Range(2, 100000);

void BM_Batched_FslPos(benchmark::State& state) {
  BatchedLoop(state, protocol::FslPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_FslPos)->RangeMultiplier(10)->Range(2, 100000);

void BM_Batched_SlPos(benchmark::State& state) {
  BatchedLoop(state, protocol::SlPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_SlPos)->RangeMultiplier(10)->Range(2, 1000);

void BM_Batched_CPosEpoch(benchmark::State& state) {
  BatchedLoop(state, protocol::CPosModel(0.01, 0.0, 32),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_CPosEpoch)->RangeMultiplier(10)->Range(2, 100000);

// The v = 0.1 arm: every paper C-PoS cell has inflation, so every miner is
// credited every epoch.  m <= 32 runs the conditional-binomial count path
// (src/sim/cost_model.cpp's kCPosPoints prior takes its m <= 32 points
// from here); m = 100 is the slot path.
void BM_Batched_CPosEpochInflation(benchmark::State& state) {
  BatchedLoop(state, protocol::CPosModel(0.01, 0.1, 32),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Batched_CPosEpochInflation)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(32)
    ->Arg(100);

// --- population-scale replications -----------------------------------------

// One iteration = one replication as a large-population-sweep cell runs
// it: Reset() to the initial pareto:1.16 stakes, then a 2000-step game.
// At m = 10^5 a game credits at most 2000 miners, so this is the series
// where the restart, not the game, could dominate: the reset must cost
// O(miners credited), not O(m).  items_per_second counts game steps.
constexpr std::uint64_t kPopulationGameSteps = 2000;

void PopulationReplicationLoop(benchmark::State& bench_state,
                               const protocol::IncentiveModel& model,
                               std::size_t miners) {
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  for (auto _ : bench_state) {
    state.Reset();
    model.RunSteps(state, 0, kPopulationGameSteps, rng);
    benchmark::DoNotOptimize(state.total_income());
  }
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() *
      static_cast<int64_t>(kPopulationGameSteps)));
}

void BM_PopulationReplication_PoW(benchmark::State& state) {
  PopulationReplicationLoop(state, protocol::PowModel(0.01),
                            static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_PopulationReplication_PoW)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PopulationReplication_MlPos(benchmark::State& state) {
  PopulationReplicationLoop(state, protocol::MlPosModel(0.01),
                            static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_PopulationReplication_MlPos)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

// --- chain-dynamics kernels -------------------------------------------------

// ns per block-discovery event of the chain-replication kernel
// (src/chain).  One iteration = one 4096-event segment through
// StepChainEvents — the shape RunChainReplicationRange drives between
// checkpoints — so items_per_second compares directly against the
// batched incentive families above (one chain event plays the role of
// one block step).
constexpr std::uint64_t kChainSegmentEvents = 4096;

void ChainStepLoop(benchmark::State& bench_state,
                   const chain::ChainGameSpec& spec) {
  chain::ChainGameState game;
  RngStream rng(20210620);
  for (auto _ : bench_state) {
    chain::StepChainEvents(spec, game, rng, kChainSegmentEvents);
  }
  bench_state.SetItemsProcessed(
      static_cast<int64_t>(bench_state.iterations()) *
      static_cast<int64_t>(kChainSegmentEvents));
}

// Fork-race machine at alpha = 0.3; arg = propagation delay in hundredths
// of a mean block interval.  delay = 0 is the forkless iid fast path (the
// verify layer's binomial anchor, one Bernoulli pair per event); larger
// delays spend more events inside races, exercising the window-draw and
// reorg-settlement arms.
void BM_ChainStep(benchmark::State& state) {
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kForkRace;
  spec.alpha = 0.3;
  spec.delay = static_cast<double>(state.range(0)) / 100.0;
  ChainStepLoop(state, spec);
}
BENCHMARK(BM_ChainStep)->Arg(0)->Arg(25)->Arg(150);

// Eyal–Sirer selfish-mining machine at alpha = 1/3 (the paper's classic
// threshold case); arg = gamma in percent.  gamma steers how often the
// tie-race arm draws, so the three points bracket the state machine's
// branch mix.
void BM_SelfishGame(benchmark::State& state) {
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kSelfish;
  spec.alpha = 1.0 / 3.0;
  spec.gamma = static_cast<double>(state.range(0)) / 100.0;
  ChainStepLoop(state, spec);
}
BENCHMARK(BM_SelfishGame)->Arg(0)->Arg(50)->Arg(100);

// --- process-shard scaling --------------------------------------------------

// Wall-clock of one whole campaign (4 cells × 256 replications × 2000
// steps) through the campaign runner on the process-sharded backend,
// shard ∈ {1, 2, 4, 8}, plus the in-process serial reference at arg 0.
// This is a WALL-CLOCK family (UseRealTime): each iteration forks its
// workers, streams chunk payloads back over pipes, and reduces — it
// measures fork + marshalling overhead against parallel speedup, not the
// per-step kernel (the families above own that).  On a loaded CI runner
// the scaling curve is noisy, so tools/compare_hotpath_bench.py holds
// BM_ShardCampaign to a separate, looser wall-clock budget and keeps it
// out of the machine-speed median.
void BM_ShardCampaign(benchmark::State& bench_state) {
  const auto shards = static_cast<unsigned>(bench_state.range(0));
  const sim::ScenarioSpec spec = sim::ScenarioSpec::FromText(
      "name=shard-bench\n"
      "protocols=pow,mlpos\n"
      "a=0.2,0.4\n"
      "steps=2000\n"
      "reps=256\n"
      "checkpoints=4\n"
      "population=off\n"
      "final_lambdas=off\n");
  const core::SerialBackend serial;
  const core::ShardBackend sharded(shards == 0 ? 1 : shards);
  sim::CampaignOptions options;
  options.backend =
      shards == 0 ? static_cast<const core::ExecutionBackend*>(&serial)
                  : &sharded;
  options.chunk_replications = 32;  // 8 chunks per cell: fan-out for 8 shards
  const sim::CampaignRunner runner(options);
  for (auto _ : bench_state) {
    const auto outcomes = runner.Run(spec, {});
    benchmark::DoNotOptimize(outcomes.size());
  }
  const auto steps_per_iteration = static_cast<int64_t>(
      static_cast<std::uint64_t>(spec.CellCount()) * spec.replications *
      spec.steps);
  bench_state.SetItemsProcessed(bench_state.iterations() *
                                steps_per_iteration);
}
#ifndef _WIN32
BENCHMARK(BM_ShardCampaign)
    ->Arg(0)  // in-process serial reference
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
#endif

// --- observability overhead -------------------------------------------------

// The overhead budget of src/obs compiled in but DISABLED: each pair runs
// the same batched segment loop, once bare and once through the exact
// production call-site shape — a Span whose enabled check fails (tracing
// off, the steady state of every run without --trace) plus a live
// ScopedLatency into the registry histogram (histograms are always on).
// tools/compare_hotpath_bench.py holds Instrumented/Base within the SAME
// run to <2% (--obs-limit 1.02), so machine speed cancels exactly.
void InstrumentedBatchedLoop(benchmark::State& bench_state,
                             const protocol::IncentiveModel& model,
                             std::size_t miners) {
  obs::SetTraceEnabled(false);
  static auto& segment_ns =
      obs::MetricsRegistry::Global().GetHistogram("bench.obs_segment_ns");
  protocol::StakeState state(ParetoStakes(miners));
  RngStream rng(20210620);
  const bool reset_per_game = model.RewardCompounds();
  const std::uint64_t segment = reset_per_game ? kGameSteps : kBatchSteps;
  for (auto _ : bench_state) {
    obs::Span span("bench.obs_segment", segment);
    obs::ScopedLatency latency(segment_ns);
    if (reset_per_game) state.Reset();
    model.RunSteps(state, state.step(), segment, rng);
  }
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(segment)));
}

void BM_ObsBase_PoW(benchmark::State& state) {
  BatchedLoop(state, protocol::PowModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsBase_PoW)->Arg(1000);

void BM_ObsInstrumented_PoW(benchmark::State& state) {
  InstrumentedBatchedLoop(state, protocol::PowModel(0.01),
                          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsInstrumented_PoW)->Arg(1000);

void BM_ObsBase_MlPos(benchmark::State& state) {
  BatchedLoop(state, protocol::MlPosModel(0.01),
              static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsBase_MlPos)->Arg(1000);

void BM_ObsInstrumented_MlPos(benchmark::State& state) {
  InstrumentedBatchedLoop(state, protocol::MlPosModel(0.01),
                          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_ObsInstrumented_MlPos)->Arg(1000);

// --- zero-allocation property -----------------------------------------------

// Steady-state replications in a bound workspace must not allocate: after
// one warm-up replication (Bind allocates the arena once), a full
// replication — Reset, checkpoint-segment RunSteps, λ recording, and the
// population-metric merge — must leave the global allocation counter
// untouched.  The benchmark FAILS (SkipWithError) on any allocation, so a
// future accidental per-step vector shows up in CI, not in a profile.
void ZeroAllocLoop(benchmark::State& bench_state,
                   const protocol::IncentiveModel& model,
                   std::size_t miners, bool population) {
  core::SimulationConfig config;
  config.steps = 256;
  config.replications = 4;
  config.checkpoints = {128, 256};
  config.population_metrics = population;
  const std::vector<double> stakes = ParetoStakes(miners);
  // One-replication chunk payload: λ rows, then any population planes.
  std::vector<double> out(core::ReplicationRowCount(config));
  core::ReplicationWorkspace workspace;
  // Warm-up: binds the arena (allocates) and sizes every scratch buffer.
  core::RunReplicationRange(model, stakes, config, 0, 1, out.data(),
                            workspace);
  std::uint64_t allocations = 0;
  for (auto _ : bench_state) {
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    core::RunReplicationRange(model, stakes, config, 1, 2, out.data(),
                              workspace);
    allocations +=
        g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  bench_state.counters["allocs_per_replication"] =
      static_cast<double>(allocations) /
      static_cast<double>(bench_state.iterations());
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(config.steps)));
  if (allocations != 0) {
    bench_state.SkipWithError(
        "steady-state replication allocated on the heap");
  }
}

void BM_ZeroAllocSteadyState_MlPos(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::MlPosModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/false);
}
// m = 100000: the scale where Reset undoes only the dirty miners; their
// list is reserved at Bind, so it must never grow on the heap.
BENCHMARK(BM_ZeroAllocSteadyState_MlPos)->Arg(2)->Arg(1000)->Arg(100000);

void BM_ZeroAllocSteadyState_PoW(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::PowModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/false);
}
BENCHMARK(BM_ZeroAllocSteadyState_PoW)->Arg(100000);

void BM_ZeroAllocSteadyState_MlPosWithMetrics(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::MlPosModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/true);
}
// With metrics on, the population meter's merge buffers are sized to m at
// its first use: m = 2 credits every miner (the d = m sort), m = 1000 and
// m = 100000 credit a subset (the merge into the cached initial order).
BENCHMARK(BM_ZeroAllocSteadyState_MlPosWithMetrics)
    ->Arg(2)
    ->Arg(1000)
    ->Arg(100000);

void BM_ZeroAllocSteadyState_PoWWithMetrics(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::PowModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/true);
}
BENCHMARK(BM_ZeroAllocSteadyState_PoWWithMetrics)->Arg(1000);

void BM_ZeroAllocSteadyState_CPos(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::CPosModel(0.01, 0.1, 32),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/false);
}
// m = 2 and m = 10 probe the m <= P count path (inline binomial draws,
// untracked credits), m = 1000 the slot path.
BENCHMARK(BM_ZeroAllocSteadyState_CPos)->Arg(2)->Arg(10)->Arg(1000);

void BM_ZeroAllocSteadyState_SlPos(benchmark::State& state) {
  ZeroAllocLoop(state, protocol::SlPosModel(0.01),
                static_cast<std::size_t>(state.range(0)),
                /*population=*/false);
}
// SL-PoS: the untracked credit arm at one credit per step.
BENCHMARK(BM_ZeroAllocSteadyState_SlPos)->Arg(10);

// Same property for the chain-dynamics kernel: after a warm-up
// replication registers the kernel's counters, a full chain replication —
// Reset, checkpoint-segment StepChainEvents, λ and chain-observable
// recording — must not allocate.
void BM_ZeroAllocChainReplication(benchmark::State& bench_state) {
  core::SimulationConfig config;
  config.steps = 256;
  config.replications = 4;
  config.checkpoints = {128, 256};
  chain::ChainGameSpec spec;
  spec.dynamics = chain::ChainDynamics::kForkRace;
  spec.alpha = 0.3;
  spec.delay = 0.25;
  // One-replication chunk payload: λ rows, then the chain planes.
  std::vector<double> out(chain::ChainReplicationRowCount(config));
  // Warm-up: the first call registers the chain counters.
  chain::RunChainReplicationRange(spec, config, 0, 1, out.data());
  std::uint64_t allocations = 0;
  for (auto _ : bench_state) {
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    chain::RunChainReplicationRange(spec, config, 1, 2, out.data());
    allocations +=
        g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  bench_state.counters["allocs_per_replication"] =
      static_cast<double>(allocations) /
      static_cast<double>(bench_state.iterations());
  bench_state.SetItemsProcessed(static_cast<int64_t>(
      bench_state.iterations() * static_cast<int64_t>(config.steps)));
  if (allocations != 0) {
    bench_state.SkipWithError(
        "steady-state chain replication allocated on the heap");
  }
}
BENCHMARK(BM_ZeroAllocChainReplication);

}  // namespace
