// ExecutionBackend: where simulation jobs run.
//
// The Monte Carlo engine and the campaign runner both reduce their work to
// a flat batch of independent jobs (replication chunks).  A backend decides
// only WHERE those jobs execute — inline on the calling thread, across a
// thread pool, or (future) across processes/machines.  It never decides
// WHAT a replication computes.
//
// Seeding / chunking contract (what makes every backend byte-identical):
//   * A job is a closed-over (cell, replication-range) pair.  Replication r
//     of a cell always derives its stream as RngStream(cell seed).Split(r)
//     — from the replication INDEX, never from the worker, the thread, or
//     the execution order.
//   * Jobs write to disjoint, pre-addressed output ranges
//     (lambda_matrix[c * reps + r]); no job reads another job's output.
//   * Post-processing that must observe ALL of a cell's jobs (reduction,
//     row emission) is ordered by the caller (atomic remaining-chunk
//     counters + an ordered-emit cursor), not by the backend.
// A future process-sharded backend therefore only needs to ship the same
// (cell seed, begin, end) triples and concatenate the same pre-addressed
// ranges to stay golden-compatible.
//
// Workers may cache per-thread arenas (ThreadLocalReplicationWorkspace);
// correctness never depends on which worker runs which job.

#ifndef FAIRCHAIN_CORE_EXECUTION_BACKEND_HPP_
#define FAIRCHAIN_CORE_EXECUTION_BACKEND_HPP_

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fairchain::core {

/// Abstract job executor.  Implementations are stateless between Execute
/// calls and re-entrant: one backend instance may serve many concurrent
/// campaigns.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Human-readable backend name ("serial", "threadpool").
  virtual std::string name() const = 0;

  /// Upper bound on jobs that may run at the same time (1 for serial);
  /// callers use this to pick chunk sizes.
  virtual unsigned Concurrency() const = 0;

  /// Runs every job to completion before returning.  Jobs may execute in
  /// any order and on any worker; they must not throw (simulation errors
  /// are raised when jobs are built, before anything is scheduled).
  virtual void Execute(std::vector<std::function<void()>> jobs) const = 0;

  /// Non-zero when this backend runs jobs in forked worker PROCESSES and
  /// the caller should marshal results explicitly (core/shard_executor.hpp)
  /// instead of relying on shared memory.  In-process backends return 0.
  /// Closure batches handed to Execute cannot cross a process boundary
  /// (they communicate through caller memory), so process-sharded callers
  /// must check this and take the marshalling path.
  virtual unsigned ProcessShards() const { return 0; }
};

/// Runs jobs inline on the calling thread, in submission order.  The
/// determinism reference: any other backend must reproduce its output
/// byte for byte.
class SerialBackend final : public ExecutionBackend {
 public:
  std::string name() const override { return "serial"; }
  unsigned Concurrency() const override { return 1; }
  void Execute(std::vector<std::function<void()>> jobs) const override;
};

/// Runs jobs across a batch of worker threads with per-worker deques and
/// work stealing (support::RunStealingBatch): job i is dealt onto deque
/// i % threads, each worker drains its own deque front-to-back, and a
/// worker whose deque runs dry steals from the back of the most loaded
/// sibling — so a worker that finishes a cheap cell's chunks immediately
/// picks up an expensive cell's remaining ones.  Successful steals are
/// counted into the `campaign.steal_count` metric.  Fresh worker threads
/// per Execute keep the backend re-entrant and the workers' thread-local
/// arenas scoped to one campaign.
class ThreadPoolBackend final : public ExecutionBackend {
 public:
  /// `threads` = 0 means EnvThreads().
  explicit ThreadPoolBackend(unsigned threads = 0);

  std::string name() const override { return "threadpool"; }
  unsigned Concurrency() const override;
  void Execute(std::vector<std::function<void()>> jobs) const override;

 private:
  unsigned threads_;
};

/// Runs jobs across N forked worker PROCESSES ("shard:N" on the CLI).
/// Callers that can marshal results (the campaign runner) detect it via
/// ProcessShards() and ship replication chunks through
/// core/shard_executor.hpp — outputs stay byte-identical to Serial at any
/// shard count because the same pre-addressed ranges are concatenated in
/// the same order.  The generic Execute falls back to inline serial
/// execution: closure jobs write to caller memory, which a forked child
/// cannot share back, so running them in-process is the only CORRECT
/// fallback (slower, never wrong).
class ShardBackend final : public ExecutionBackend {
 public:
  /// `shards` >= 1 (the CLI parser enforces it before construction).
  explicit ShardBackend(unsigned shards);

  std::string name() const override;
  unsigned Concurrency() const override { return shards_; }
  unsigned ProcessShards() const override { return shards_; }
  void Execute(std::vector<std::function<void()>> jobs) const override;

 private:
  unsigned shards_;
};

/// The backend used when none is injected: Serial for a single worker
/// (no pool setup, no worker handoff), ThreadPool otherwise.  `threads` = 0
/// means EnvThreads().
std::unique_ptr<ExecutionBackend> MakeDefaultBackend(unsigned threads);

/// Backend by CLI name: "serial", "pool"/"threadpool" (at `threads`
/// workers, 0 = EnvThreads()), or "shard:<N>" (N >= 1 forked worker
/// processes).  Throws std::invalid_argument on an unknown or malformed
/// name — listing the known backends and suggesting the closest spelling
/// ("did you mean") — and on a missing/zero/negative/garbage shard count.
std::unique_ptr<ExecutionBackend> MakeBackend(const std::string& name,
                                              unsigned threads);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_EXECUTION_BACKEND_HPP_
