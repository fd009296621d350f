#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>

#include "chain/chain_replication.hpp"
#include "core/execution_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/model_factory.hpp"
#include "sim/cost_model.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace fairchain::sim {

namespace {

// Everything one cell needs while in flight on the pool.
struct CellExecution {
  CampaignCell cell;
  core::SimulationConfig config;
  // Incentive cells bind a protocol model; chain cells bind a game spec
  // instead (model stays null) and record per-replication chain
  // observables alongside λ.
  std::unique_ptr<protocol::IncentiveModel> model;
  bool chain = false;
  chain::ChainGameSpec game;
  std::string protocol_name;  // model->name(), or the chain dynamics name
  std::vector<double> stakes;
  // Rows of one chunk's payload: the λ rows, then the population planes
  // (incentive cells with population metrics) or the chain planes (chain
  // cells).  A chunk of n replications carries rows * n doubles.
  std::size_t rows = 0;
  // The same rows over every replication: matrix[row * reps + rep].
  std::vector<double> matrix;
  std::once_flag allocate_once;  // matrix allocated by the first commit
  std::atomic<std::size_t> remaining_chunks{0};
  core::SimulationResult result;
  bool reduced = false;
};

void EmitCellRows(const ScenarioSpec& spec, const CellExecution& execution,
                  const std::vector<ResultSink*>& sinks) {
  const auto convergence = execution.result.ConvergenceStep();
  for (std::size_t c = 0; c < execution.result.checkpoints.size(); ++c) {
    const core::CheckpointStats& stats = execution.result.checkpoints[c];
    CampaignRow row;
    row.scenario = spec.name;
    row.cell = execution.cell.index;
    row.protocol = execution.cell.protocol;
    row.miners = execution.cell.miners;
    row.whales = execution.cell.whales;
    row.a = execution.cell.a;
    row.w = execution.cell.w;
    row.v = execution.cell.v;
    row.shards = execution.cell.shards;
    row.withhold = execution.cell.withhold;
    row.steps = spec.steps;
    row.replications = spec.replications;
    row.cell_seed = execution.config.seed;
    row.checkpoint = c;
    row.step = stats.step;
    row.mean = stats.mean;
    row.std_dev = stats.std_dev;
    row.p05 = stats.p05;
    row.p25 = stats.p25;
    row.median = stats.median;
    row.p75 = stats.p75;
    row.p95 = stats.p95;
    row.min = stats.min;
    row.max = stats.max;
    row.unfair_probability = stats.unfair_probability;
    row.convergence_step = convergence;
    row.stake_dist = execution.cell.stake_dist;
    row.gini = stats.gini;
    row.hhi = stats.hhi;
    row.nakamoto = stats.nakamoto;
    row.top_decile_share = stats.top_decile_share;
    row.gamma = execution.cell.gamma;
    row.delay = execution.cell.delay;
    row.orphan_rate = stats.orphan_rate;
    row.reorg_depth_mean = stats.reorg_depth_mean;
    row.reorg_depth_max = stats.reorg_depth_max;
    for (ResultSink* sink : sinks) sink->WriteRow(row);
  }
}

// IEEE-754 bit pattern as 16 hex digits: the preimage must distinguish
// bit-different doubles (e.g. 0.1 vs its neighbour), which no decimal
// rendering shorter than 17 significant digits guarantees.
std::string DoubleBits(double value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

// Minimum modeled cost per chunk (1 ms).  Below this, dispatch overhead
// (closure/grant round-trips, payload framing) rivals the work itself — a
// cell whose whole replication budget models cheaper than this floor runs
// as ONE chunk instead of shattering into per-replication confetti.
constexpr double kMinChunkNs = 1e6;

// Longest-processing-time order over the pending chunks, cell by cell:
// cells by descending cost of their largest chunk, each cell's chunks
// adjacent and in plan order, ties broken by ascending index so the order
// is a pure function of the plan.  Starting the expensive chunks first
// lets the cheap tail level out the finish — the classic LPT bound.
// Keeping a cell's chunks (its smaller remainder chunk included) together
// lets the cell reduce and free its matrices before later cells allocate
// theirs, which bounds how many cells hold memory at once.
std::vector<std::size_t> LptOrder(const std::vector<ChunkJob>& jobs) {
  std::vector<double> cell_cost;
  for (const ChunkJob& job : jobs) {
    if (job.cell >= cell_cost.size()) cell_cost.resize(job.cell + 1, 0.0);
    cell_cost[job.cell] = std::max(cell_cost[job.cell], job.cost_ns);
  }
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&jobs, &cell_cost](std::size_t a, std::size_t b) {
              const double cost_a = cell_cost[jobs[a].cell];
              const double cost_b = cell_cost[jobs[b].cell];
              if (cost_a != cost_b) return cost_a > cost_b;
              return a < b;
            });
  return order;
}

// The only place a chunk runs its kernel: replications [job.begin,
// job.end) of the cell as one chunk-local payload.  Runs on a pool worker
// or, on the shard backend, in a forked worker process — whose span is
// streamed back, so the parent's trace shows the chunk on the worker's own
// track.
std::vector<double> ComputeChunk(const CellExecution& execution,
                                 const ChunkJob& job) {
  obs::Span chunk_span("campaign.chunk", job.cell);
  std::vector<double> payload(execution.rows * (job.end - job.begin));
  if (execution.chain) {
    chain::RunChainReplicationRange(execution.game, execution.config,
                                    job.begin, job.end, payload.data());
  } else {
    core::RunReplicationRange(*execution.model, execution.stakes,
                              execution.config, job.begin, job.end,
                              payload.data());
  }
  return payload;
}

}  // namespace

std::string CellStorePreimage(const ScenarioSpec& spec,
                              const CampaignCell& cell) {
  const core::SimulationConfig config = CellConfig(spec, cell);
  if (cell.chain_dynamics) {
    // Chain cells fork the preimage under their own header: the physics is
    // different (fork races instead of incentive games), so a chain cell
    // must never collide with an incentive entry — and incentive preimages
    // stay byte-for-byte what they were before chain campaigns existed.
    std::string out = "fairchain-chain-cell-v1\n";
    out += "dynamics=" + cell.protocol + "\n";
    out += "alpha=" + DoubleBits(cell.a) + "\n";
    out += "gamma=" + DoubleBits(cell.gamma) + "\n";
    out += "delay=" + DoubleBits(cell.delay) + "\n";
    out += "steps=" + std::to_string(config.steps);
    out += "\nreplications=" + std::to_string(config.replications);
    out += "\nseed=" + std::to_string(config.seed);
    out += "\ncheckpoints=";
    for (std::size_t i = 0; i < config.checkpoints.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(config.checkpoints[i]);
    }
    out += "\nkeep_final_lambdas=";
    out += config.keep_final_lambdas ? '1' : '0';
    out += "\nepsilon=" + DoubleBits(spec.fairness.epsilon);
    out += "\ndelta=" + DoubleBits(spec.fairness.delta);
    out += "\n";
    return out;
  }
  std::string out = "fairchain-cell-v1\n";
  out += "protocol=" + cell.protocol + "\n";
  out += "w=" + DoubleBits(cell.w) + "\n";
  out += "v=" + DoubleBits(cell.v) + "\n";
  out += "shards=" + std::to_string(cell.shards) + "\n";
  out += "withhold=" + std::to_string(config.withhold_period) + "\n";
  out += "miner=" + std::to_string(config.miner) + "\n";
  out += "stakes=";
  const std::vector<double> stakes = cell.Stakes();
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    if (i != 0) out += ',';
    out += DoubleBits(stakes[i]);
  }
  out += "\nsteps=" + std::to_string(config.steps);
  out += "\nreplications=" + std::to_string(config.replications);
  out += "\nseed=" + std::to_string(config.seed);
  out += "\ncheckpoints=";
  for (std::size_t i = 0; i < config.checkpoints.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(config.checkpoints[i]);
  }
  out += "\npopulation_metrics=";
  out += config.population_metrics ? '1' : '0';
  out += "\nkeep_final_lambdas=";
  out += config.keep_final_lambdas ? '1' : '0';
  out += "\nepsilon=" + DoubleBits(spec.fairness.epsilon);
  out += "\ndelta=" + DoubleBits(spec.fairness.delta);
  out += "\n";
  return out;
}

std::uint64_t CellSeed(std::uint64_t master_seed, std::size_t cell_index) {
  // Two SplitMix64 rounds over (seed, index); the golden-ratio multiplier
  // decorrelates adjacent indices before the first mix.
  SplitMix64 mixer(master_seed ^
                   (0x9E3779B97F4A7C15ULL *
                    (static_cast<std::uint64_t>(cell_index) + 1)));
  mixer.Next();
  return mixer.Next();
}

core::SimulationConfig CellConfig(const ScenarioSpec& spec,
                                  const CampaignCell& cell) {
  core::SimulationConfig config;
  config.steps = spec.steps;
  config.replications = spec.replications;
  config.seed = CellSeed(spec.seed, cell.index);
  config.withhold_period = cell.withhold;
  config.population_metrics = spec.population_metrics;
  config.keep_final_lambdas = spec.keep_final_lambdas;
  if (cell.chain_dynamics) {
    // Chain cells have no stake population to take Gini/HHI over; they
    // record their own observables (the chain matrix) instead.
    config.population_metrics = false;
  }
  if (spec.spacing == CheckpointSpacing::kLog) {
    config.checkpoints = core::LogCheckpoints(
        spec.steps, std::max<std::size_t>(2, spec.checkpoint_count),
        std::min<std::uint64_t>(10, spec.steps));
  } else {
    config.checkpoints =
        core::LinearCheckpoints(spec.steps, spec.checkpoint_count);
  }
  return config;
}

core::SimulationConfig CellConfig(const ScenarioSpec& spec,
                                  std::size_t cell_index) {
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  if (cell_index >= cells.size()) {
    throw std::invalid_argument("CellConfig: cell index out of range");
  }
  return CellConfig(spec, cells[cell_index]);
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(options) {}

unsigned CampaignRunner::PlannedConcurrency() const {
  if (options_.backend != nullptr) {
    return std::max(1u, options_.backend->Concurrency());
  }
  return options_.threads != 0 ? options_.threads : EnvThreads();
}

std::vector<ChunkJob> CampaignRunner::PlanJobs(
    const ScenarioSpec& spec) const {
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  const unsigned threads = PlannedConcurrency();
  // Per-cell modeled replication cost (always finite and positive) from
  // the BENCH-calibrated priors.  Estimates only shape chunk GEOMETRY —
  // the simulated values depend on (cell seed, replication index) alone,
  // so a wrong estimate costs wall clock, never bytes.
  std::vector<double> rep_ns(cells.size(), 1.0);
  double total_ns = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    rep_ns[i] = EstimateReplicationNs(cells[i], spec.steps);
    total_ns += rep_ns[i] * static_cast<double>(spec.replications);
  }
  // Target: ~4 chunks per worker of EQUAL MODELED COST across the whole
  // campaign (not per cell), floored at kMinChunkNs.  An expensive cell
  // therefore splits into many small-replication chunks while a cheap
  // cell contributes a few large ones — the geometry that keeps every
  // worker busy until the campaign's last millisecond.
  const double target_ns =
      std::max(total_ns / (static_cast<double>(threads) * 4.0), kMinChunkNs);
  std::vector<ChunkJob> jobs;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    std::uint64_t chunk = options_.chunk_replications;
    if (chunk == 0) {
      const double reps_per_chunk = target_ns / rep_ns[cell];
      chunk = static_cast<std::uint64_t>(std::llround(reps_per_chunk));
      chunk = std::clamp<std::uint64_t>(chunk, 1, spec.replications);
    }
    for (std::uint64_t begin = 0; begin < spec.replications; begin += chunk) {
      ChunkJob job;
      job.cell = cell;
      job.begin = static_cast<std::size_t>(begin);
      job.end = static_cast<std::size_t>(
          std::min(spec.replications, begin + chunk));
      job.cost_ns =
          rep_ns[cell] * static_cast<double>(job.end - job.begin);
      jobs.push_back(job);
    }
  }
  return jobs;
}

std::vector<CellOutcome> CampaignRunner::Run(
    const ScenarioSpec& spec, const std::vector<ResultSink*>& sinks) const {
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  // Campaign-wide metrics (always on; two clock reads per multi-ms unit of
  // work).  Resolved once per Run so the worker lambdas never touch the
  // registry — recording is pure atomics.  --progress reads cells_done /
  // replications_done live; cache-served cells credit their replications
  // so throughput and ETA stay truthful on warm stores.
  auto& metrics = obs::MetricsRegistry::Global();
  obs::Counter& cells_total = metrics.GetCounter("campaign.cells_total");
  obs::Counter& cells_done = metrics.GetCounter("campaign.cells_done");
  obs::Counter& cells_cached = metrics.GetCounter("campaign.cells_cached");
  obs::Counter& chunks_done = metrics.GetCounter("campaign.chunks_done");
  obs::Counter& replications_done =
      metrics.GetCounter("campaign.replications_done");
  obs::Counter& rows_emitted = metrics.GetCounter("campaign.rows_emitted");
  // Chunk latency split by cell family: incentive games and chain
  // fork-races have cost distributions an order of magnitude apart, and a
  // merged histogram hides both.
  obs::LatencyHistogram& chunk_ns_incentive =
      metrics.GetHistogram("campaign.chunk_ns.incentive");
  obs::LatencyHistogram& chunk_ns_chain =
      metrics.GetHistogram("campaign.chunk_ns.chain");
  obs::LatencyHistogram& reduce_ns =
      metrics.GetHistogram("campaign.reduce_ns");
  // Modeled-cost progress: total at Run start (every planned chunk plus
  // cache-served cells), done as chunks complete.  --progress weights its
  // ETA by these, so a campaign that front-loads cheap cells doesn't show
  // a collapsing-then-exploding estimate.
  obs::Counter& cost_total_ns = metrics.GetCounter("campaign.cost_total_ns");
  obs::Counter& cost_done_ns = metrics.GetCounter("campaign.cost_done_ns");
  obs::Span run_span("campaign.run", cells.size());
  cells_total.Add(cells.size());
  const core::ExecutionBackend* backend = options_.backend;
  std::unique_ptr<core::ExecutionBackend> owned_backend;
  if (backend == nullptr) {
    owned_backend = core::MakeDefaultBackend(options_.threads);
    backend = owned_backend.get();
  }

  // Bind every cell fully on this thread: model construction and config
  // validation throw here, never inside a worker.  The cell matrices are
  // allocated lazily by the cell's first committed chunk.
  std::vector<std::unique_ptr<CellExecution>> executions;
  executions.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    auto execution = std::make_unique<CellExecution>();
    execution->cell = cell;
    execution->config = CellConfig(spec, cell);
    execution->config.Validate();
    if (cell.chain_dynamics) {
      execution->chain = true;
      execution->game.dynamics = chain::ParseChainDynamics(cell.protocol);
      execution->game.alpha = cell.a;
      execution->game.gamma = cell.gamma;
      execution->game.delay = cell.delay;
      execution->game.Validate();
      execution->protocol_name = cell.protocol;
      execution->rows = chain::ChainReplicationRowCount(execution->config);
    } else {
      execution->model =
          protocol::MakeModel(cell.protocol, cell.w, cell.v, cell.shards);
      execution->protocol_name = execution->model->name();
      execution->rows = core::ReplicationRowCount(execution->config);
    }
    execution->stakes = cell.Stakes();
    executions.push_back(std::move(execution));
  }

  // Plan the job grid up front (it is pure): per-job modeled costs feed
  // the cost counters below, the cache probe, and the dispatch order.
  const std::vector<ChunkJob> plan = PlanJobs(spec);
  std::vector<double> cell_cost_ns(executions.size(), 0.0);
  double plan_cost_ns = 0.0;
  for (const ChunkJob& job : plan) {
    cell_cost_ns[job.cell] += job.cost_ns;
    plan_cost_ns += job.cost_ns;
  }
  cost_total_ns.Add(static_cast<std::uint64_t>(plan_cost_ns));

  // Content addresses and cache probe.  A verified hit hands the cell its
  // decoded result up front; its chunks are never scheduled.  Corrupt or
  // version-mismatched entries count as misses — the cell recomputes and
  // the Put below overwrites the bad entry.
  store::CampaignStore* cache = options_.store;
  std::vector<store::CellKey> keys;
  std::vector<bool> cached(executions.size(), false);
  if (cache != nullptr) {
    keys.reserve(executions.size());
    for (const auto& execution : executions) {
      keys.push_back(store::MakeCellKey(cache->code_version() + "\n" +
                                        CellStorePreimage(spec,
                                                          execution->cell)));
    }
    if (options_.read_cache) {
      for (std::size_t i = 0; i < executions.size(); ++i) {
        obs::Span probe_span("campaign.store_probe", i);
        store::LoadResult loaded = cache->Load(keys[i]);
        if (loaded.status == store::LoadStatus::kHit) {
          executions[i]->result = std::move(loaded.result);
          executions[i]->reduced = true;
          cached[i] = true;
          cells_cached.Add();
          cells_done.Add();
          replications_done.Add(spec.replications);
          // A cache hit retires the cell's whole modeled cost: the ETA
          // must see warm-store cells as finished work, not free work.
          cost_done_ns.Add(static_cast<std::uint64_t>(cell_cost_ns[i]));
        }
      }
    }
  }

  for (ResultSink* sink : sinks) sink->BeginCampaign(spec);

  // Ordered streaming: the worker that reduces a cell drains every
  // consecutive reduced cell starting at next_emit, so sinks always see
  // ascending cell order no matter which cell finishes first.
  std::mutex emit_mutex;
  std::size_t next_emit = 0;

  // Caller holds emit_mutex.
  auto drain_reduced = [&] {
    while (next_emit < executions.size() && executions[next_emit]->reduced) {
      obs::Span emit_span("campaign.emit", next_emit);
      EmitCellRows(spec, *executions[next_emit], sinks);
      rows_emitted.Add(executions[next_emit]->result.checkpoints.size());
      ++next_emit;
    }
  };

  // Emit the cache-served prefix now: when a leading run of cells (or the
  // whole campaign) came from the store, no chunk completion will ever
  // trigger the drain for them.
  {
    std::lock_guard<std::mutex> lock(emit_mutex);
    drain_reduced();
  }

  // Dispatch exactly the job grid PlanJobs describes (the plan the tests
  // assert on) minus cache-served cells, as one batch so cells interleave
  // across workers.
  std::vector<ChunkJob> pending;
  pending.reserve(plan.size());
  for (const ChunkJob& job : plan) {
    if (!cached[job.cell]) pending.push_back(job);
  }
  for (const ChunkJob& job : pending) {
    executions[job.cell]->remaining_chunks.fetch_add(1);
  }

  // The only place a payload lands, on every backend: checks its size,
  // scatters it into the cell's pre-addressed matrix slots, and reduces and
  // emits the cell once its last chunk is in.  Called concurrently from
  // pool workers or shard reader threads.
  auto commit_chunk = [&](std::size_t index, std::vector<double>&& payload,
                          std::uint64_t busy_ns) {
    const ChunkJob& job = pending[index];
    CellExecution& execution = *executions[job.cell];
    const core::SimulationConfig& config = execution.config;
    const std::size_t span = job.end - job.begin;
    if (payload.size() != execution.rows * span) {
      throw std::runtime_error(
          "campaign chunk payload size mismatch for cell " +
          std::to_string(job.cell));
    }
    if (span == config.replications) {
      // The cell's only chunk: its payload already is the cell matrix.
      execution.matrix = std::move(payload);
    } else {
      // Allocated by the cell's first commit, so peak memory tracks the
      // cells in flight rather than the whole grid.
      std::call_once(execution.allocate_once, [&execution, &config] {
        execution.matrix.assign(execution.rows * config.replications, 0.0);
      });
      core::ScatterChunk(payload, job.begin, job.end, config.replications,
                         execution.matrix.data());
    }
    (execution.chain ? chunk_ns_chain : chunk_ns_incentive).Record(busy_ns);
    chunks_done.Add();
    replications_done.Add(span);
    cost_done_ns.Add(static_cast<std::uint64_t>(job.cost_ns));
    if (execution.remaining_chunks.fetch_sub(1) != 1) return;

    // Last chunk of the cell: reduce, free the matrix, persist, emit.
    {
      obs::Span reduce_span("campaign.reduce", job.cell);
      obs::ScopedLatency reduce_latency(reduce_ns);
      const std::span<const double> all(execution.matrix);
      const std::size_t lambda_size =
          config.checkpoints.size() * config.replications;
      const std::span<const double> planes = all.subspan(lambda_size);
      // Chain cells carry chain planes, never population planes.
      execution.result = core::ReduceToResult(
          execution.protocol_name, execution.stakes, config, spec.fairness,
          all.first(lambda_size),
          execution.chain ? std::span<const double>{} : planes);
      if (execution.chain) {
        chain::ReduceChainMetrics(config, planes, execution.result);
      }
    }
    cells_done.Add();
    execution.matrix.clear();
    execution.matrix.shrink_to_fit();
    // Persist before emitting: once a cell's rows are visible its entry is
    // committed, so a crash after partial output never loses stored work.
    if (cache != nullptr) cache->Put(keys[job.cell], execution.result);
    std::lock_guard<std::mutex> lock(emit_mutex);
    execution.reduced = true;
    drain_reduced();
  };

  // Dispatch order: longest modeled cost first (LPT — expensive chunks
  // start early, the cheap tail levels the finish).  Order never affects
  // output: payloads land in pre-addressed slots and emission is
  // cursor-ordered.
  if (!pending.empty()) {
    obs::Span execute_span("backend.execute", pending.size());
    backend->Run(
        LptOrder(pending),
        [&](std::size_t index) {
          const ChunkJob& job = pending[index];
          return ComputeChunk(*executions[job.cell], job);
        },
        commit_chunk);
  }

  for (ResultSink* sink : sinks) sink->EndCampaign();

  std::vector<CellOutcome> outcomes;
  outcomes.reserve(executions.size());
  for (std::size_t i = 0; i < executions.size(); ++i) {
    CellOutcome outcome;
    outcome.cell = executions[i]->cell;
    outcome.seed = executions[i]->config.seed;
    outcome.result = std::move(executions[i]->result);
    outcome.from_cache = cached[i];
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace fairchain::sim
