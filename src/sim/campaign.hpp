// Batched campaign scheduling.
//
// A campaign is one ScenarioSpec expanded into its grid of CampaignCells.
// The CampaignRunner executes ALL cells over ONE ExecutionBackend with
// replication-level sharding: every cell's replications are cut into
// chunks, and the full chunk grid (every chunk of every cell) is handed to
// the backend in a single Run call.  On the thread-pool backend a 50-cell
// campaign therefore saturates all cores for its whole duration instead of
// running cells serially through per-cell pools — on k cores the wall
// clock approaches (serial sum)/k; the serial backend runs the same grid
// inline and is the byte-identical determinism reference.
//
// Determinism contract: replication r of cell i always draws from
// RngStream(CellSeed(spec.seed, i)).Split(r), and rows are streamed to the
// sinks in ascending (cell, checkpoint) order regardless of which worker
// finishes first — so campaign output is byte-identical for any thread
// count (pinned by tests/integration/campaign_determinism_test.cpp).
//
// Scheduling rides on top of that contract (and therefore never changes
// output): chunks are sized cost-proportionally by
// sim::EstimateReplicationNs and dispatched longest-first, the thread-pool
// backend levels imbalance by work stealing, and the shard backend pulls
// chunks through a demand-driven grant protocol.
//
// Every backend runs the same chunk path: a chunk's kernel writes one
// chunk-local payload (λ rows, then population or chain-metric plane
// rows), and the parent commits it into the cell's pre-addressed matrix
// slots in one place — in-process workers hand the payload over directly,
// forked shard workers stream it back over a pipe.  Same doubles, same
// slots, same reduction — byte-identical output on every backend at any
// thread or shard count.
//
// Resumable caching rides on the same contract: with
// CampaignOptions::store set, every finished cell is persisted
// content-addressed (see CellStorePreimage), and verified hits are served
// without recomputation — a killed campaign re-run with the same store
// skips every cell that completed.

#ifndef FAIRCHAIN_SIM_CAMPAIGN_HPP_
#define FAIRCHAIN_SIM_CAMPAIGN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/execution_backend.hpp"
#include "core/monte_carlo.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"
#include "store/campaign_store.hpp"

namespace fairchain::sim {

/// Execution knobs independent of what is simulated.
struct CampaignOptions {
  /// Worker threads for the default backend (0 = EnvThreads()).  Ignored
  /// when `backend` is injected.
  unsigned threads = 0;
  /// Replications per scheduled chunk (0 = cost-proportional planning; see
  /// CampaignRunner::PlanJobs).  A non-zero value pins the chunk geometry
  /// but keeps the longest-first dispatch order.
  std::uint64_t chunk_replications = 0;
  /// Execution backend the job grid runs on (non-owning; must outlive the
  /// runner's Run).  Null = MakeDefaultBackend(threads).  Output is
  /// byte-identical for ANY backend — see core/execution_backend.hpp for
  /// the seeding/chunking contract that guarantees it.
  const core::ExecutionBackend* backend = nullptr;
  /// Content-addressed cell cache (non-owning; null = no caching).  When
  /// set, every finished cell is persisted, and — unless `read_cache` is
  /// off — verified store hits are served without recomputation, which is
  /// what makes a killed campaign resumable.
  store::CampaignStore* store = nullptr;
  /// When false (`--no-cache`), the store is write-only: every cell is
  /// recomputed and its entry overwritten.
  bool read_cache = true;
};

/// One executed cell: its grid coordinates, derived seed, and full result.
struct CellOutcome {
  CampaignCell cell;
  std::uint64_t seed = 0;  ///< CellSeed(spec.seed, cell.index)
  core::SimulationResult result;
  /// True when the result was served from the campaign store instead of
  /// being recomputed (the cache-accounting hook the resume tests pin).
  bool from_cache = false;
};

/// One schedulable unit: replications [begin, end) of one cell.
struct ChunkJob {
  std::size_t cell = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Modeled cost of this chunk (sim::EstimateReplicationNs times its
  /// replication count).  Drives dispatch order and the cost-weighted
  /// progress ETA; never reaches the simulated values.
  double cost_ns = 0.0;
};

/// Deterministic per-cell seed split: distinct cells draw from
/// statistically independent streams, and a cell's seed depends only on
/// (master seed, cell index) — not on the grid's other axes — so adding a
/// cell never perturbs existing ones.
std::uint64_t CellSeed(std::uint64_t master_seed, std::size_t cell_index);

/// The runner.  Stateless apart from its options; Run is re-entrant.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Expands `spec`, executes every cell over one shared pool, streams
  /// rows to `sinks` (BeginCampaign / WriteRow* / EndCampaign; WriteRow
  /// calls are serialised and ordered), and returns per-cell outcomes in
  /// grid order.  Throws std::invalid_argument on an invalid spec.
  std::vector<CellOutcome> Run(const ScenarioSpec& spec,
                               const std::vector<ResultSink*>& sinks) const;

  /// The job grid Run would schedule: every cell's replication chunks, in
  /// grid order (the longest-first dispatch reordering happens at
  /// execution time, not here).  Each cell's chunk size is
  /// cost-proportional: chunks target ~equal modeled nanoseconds, with a
  /// minimum-cost floor so cells whose replications are tiny never
  /// degenerate into per-replication chunks.  A pure function of (spec,
  /// planned concurrency, chunk_replications).  Exposed so tests can verify
  /// that a multi-cell campaign is dispatched as one interleavable batch
  /// and pin the planner's geometry, without running the simulations.
  std::vector<ChunkJob> PlanJobs(const ScenarioSpec& spec) const;

  const CampaignOptions& options() const { return options_; }

 private:
  /// Concurrency the job grid is sized for: the injected backend's, or the
  /// default backend's worker count.
  unsigned PlannedConcurrency() const;

  CampaignOptions options_;
};

/// The exact SimulationConfig `cell` runs under: checkpoints expanded per
/// the spec's spacing, seed = CellSeed(spec.seed, cell.index), and the
/// cell's withholding period.  Shared by the runner and the tests that
/// cross-check it against MonteCarloEngine.
core::SimulationConfig CellConfig(const ScenarioSpec& spec,
                                  const CampaignCell& cell);

/// Convenience overload: expands the grid and configures its
/// `cell_index`-th cell.
core::SimulationConfig CellConfig(const ScenarioSpec& spec,
                                  std::size_t cell_index);

/// Canonical text describing everything that determines `cell`'s simulated
/// result: protocol and its parameters, the exact stake vector, the
/// derived cell seed, horizon / replications / expanded checkpoints, and
/// the fairness spec.  Doubles are rendered as IEEE-754 bit patterns, so
/// equal preimages mean bit-equal inputs.  Deliberately EXCLUDES the
/// scenario name, cell index, backend, shard count, and chunking — cells
/// that simulate the same game share one store entry no matter how they
/// were scheduled.  The runner prefixes the store's code-version stamp and
/// hashes the result into the cell's content address (store::MakeCellKey).
/// Chain-dynamics cells use their own preimage header
/// ("fairchain-chain-cell-v1") over (dynamics, alpha, gamma, delay) plus
/// the shared horizon fields, so they can never collide with incentive
/// entries — whose preimages remain byte-identical to earlier revisions.
std::string CellStorePreimage(const ScenarioSpec& spec,
                              const CampaignCell& cell);

}  // namespace fairchain::sim

#endif  // FAIRCHAIN_SIM_CAMPAIGN_HPP_
