// ExecutionBackend: where simulation chunks run.
//
// The campaign runner reduces its work to a flat list of independent chunks
// (replication ranges of one cell).  A backend decides only WHERE those
// chunks execute — inline on the calling thread, across a thread pool, or
// across forked worker processes.
// It never decides WHAT a replication computes.
//
// One job contract for every backend: `compute(j)` returns chunk j's
// payload as a flat vector of doubles, and `consume(j, payload, busy_ns)`
// commits it into the caller's result matrices.  compute may run on any
// worker thread or in a forked child process, so it communicates only
// through its return value; consume always runs in the calling process and
// may be called concurrently, so it must be thread-safe.
//
// Seeding / chunking contract (what makes every backend byte-identical):
//   * A chunk is a (cell, replication-range) pair.  Replication r of a cell
//     always derives its stream as RngStream(cell seed).Split(r) — from the
//     replication INDEX, never from the worker, the thread, the process or
//     the execution order.
//   * Payloads land in disjoint, pre-addressed output ranges; no chunk reads
//     another chunk's output, so payloads commute and may be consumed in
//     any arrival order.
//   * Post-processing that must observe ALL of a cell's chunks (reduction,
//     row emission) is ordered by the caller (atomic remaining-chunk
//     counters + an ordered-emit cursor), not by the backend.
//
// Failure semantics are the same everywhere: the first exception compute
// or consume throws reaches the caller of Run once the backend has stopped
// (serial: at once; pool and shard: after the other workers drain the
// batch).
//
// Workers may cache per-thread arenas (ThreadLocalReplicationWorkspace);
// correctness never depends on which worker runs which chunk.

#ifndef FAIRCHAIN_CORE_EXECUTION_BACKEND_HPP_
#define FAIRCHAIN_CORE_EXECUTION_BACKEND_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/env.hpp"

namespace fairchain::core {

/// Upper bound on worker threads and shard processes (`--threads`,
/// ThreadPoolBackend, `shard:<N>` and FAIRCHAIN_THREADS all enforce it).
inline constexpr unsigned kMaxWorkers = kMaxThreads;

/// Computes chunk j's payload.  Runs on a worker thread or, on the shard
/// backend, in a forked worker process.
using ChunkComputeFn = std::function<std::vector<double>(std::size_t)>;

/// Commits chunk j's payload in the calling process.  `busy_ns` is the time
/// the backend spent producing it (compute time in-process; grant written
/// to payload received on the shard backend).  Must be thread-safe.
using ChunkConsumeFn =
    std::function<void(std::size_t, std::vector<double>&&, std::uint64_t)>;

/// Abstract chunk executor.  Implementations are stateless between Run
/// calls and re-entrant: one backend instance may serve many concurrent
/// campaigns.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Human-readable backend name ("serial", "threadpool", "shard:<N>").
  virtual std::string name() const = 0;

  /// Upper bound on chunks that may run at the same time (1 for serial);
  /// callers use this to pick chunk sizes.
  virtual unsigned Concurrency() const = 0;

  /// Computes and consumes every chunk in `order` (a permutation of
  /// [0, order.size())), dispatching them in that order, and returns once
  /// all are consumed.  Rethrows the first failure (see the file comment).
  virtual void Run(const std::vector<std::size_t>& order,
                   const ChunkComputeFn& compute,
                   const ChunkConsumeFn& consume) const = 0;
};

/// Runs chunks inline on the calling thread, in `order`.  The determinism
/// reference: any other backend must reproduce its output byte for byte.
class SerialBackend final : public ExecutionBackend {
 public:
  std::string name() const override { return "serial"; }
  unsigned Concurrency() const override { return 1; }
  void Run(const std::vector<std::size_t>& order,
           const ChunkComputeFn& compute,
           const ChunkConsumeFn& consume) const override;
};

/// Runs consume(j, compute(j)) as one task per chunk across a batch of
/// worker threads with per-worker deques and work stealing
/// (support::RunStealingBatch): the i-th chunk of `order` is dealt onto
/// deque i % threads, each worker drains its own deque front-to-back, and
/// a worker whose deque runs dry steals from the back of the most loaded
/// sibling — so a worker that finishes a cheap cell's chunks immediately
/// picks up an expensive cell's remaining ones.  Successful steals are
/// counted into the `campaign.steal_count` metric.  Fresh worker threads
/// per Run keep the backend re-entrant and the workers' thread-local
/// arenas scoped to one campaign.
class ThreadPoolBackend final : public ExecutionBackend {
 public:
  /// `threads` = 0 means EnvThreads().  Throws std::invalid_argument above
  /// kMaxWorkers.
  explicit ThreadPoolBackend(unsigned threads = 0);

  std::string name() const override { return "threadpool"; }
  unsigned Concurrency() const override;
  void Run(const std::vector<std::size_t>& order,
           const ChunkComputeFn& compute,
           const ChunkConsumeFn& consume) const override;

 private:
  unsigned threads_;
};

/// Runs chunks across N forked worker PROCESSES ("shard:N" on the CLI)
/// through core::RunSharded: workers pull chunks one grant at a time in
/// `order` and stream their payloads back over pipes, where the parent
/// consumes them.  Output stays byte-identical to Serial at any shard
/// count because every payload lands in the same pre-addressed slots.
class ShardBackend final : public ExecutionBackend {
 public:
  /// `shards` in [1, kMaxWorkers] (the CLI parser enforces it before
  /// construction).
  explicit ShardBackend(unsigned shards);

  std::string name() const override;
  unsigned Concurrency() const override { return shards_; }
  void Run(const std::vector<std::size_t>& order,
           const ChunkComputeFn& compute,
           const ChunkConsumeFn& consume) const override;

 private:
  unsigned shards_;
};

/// The backend used when none is injected: Serial for a single worker
/// (no pool setup, no worker handoff), ThreadPoolBackend otherwise.
/// `threads` = 0 means EnvThreads().
std::unique_ptr<ExecutionBackend> MakeDefaultBackend(unsigned threads);

/// Backend by CLI name: "serial", "pool"/"threadpool" (at `threads`
/// workers, 0 = EnvThreads()), or "shard:<N>" (N in [1, kMaxWorkers]
/// forked worker processes).  Throws std::invalid_argument on an unknown or
/// malformed name — listing the known backends and suggesting the closest
/// spelling ("did you mean") — and on a missing/zero/negative/garbage
/// shard count.
std::unique_ptr<ExecutionBackend> MakeBackend(const std::string& name,
                                              unsigned threads);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_EXECUTION_BACKEND_HPP_
