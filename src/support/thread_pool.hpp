// A fixed-size worker pool with a ParallelFor convenience wrapper.
//
// The Monte Carlo engine shards replications across workers; determinism is
// preserved because each replication derives its RNG stream from the
// replication index, never from the executing thread.

#ifndef FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_
#define FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fairchain {

/// Fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Enqueues `tasks` under a single lock acquisition and wakes every
  /// worker once.  Much cheaper than N Submit calls when dispatching a
  /// large job grid (see bench/micro_perf.cpp for the measured difference);
  /// the campaign runner uses this to launch whole campaigns at once.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs one fixed batch of tasks across `threads` workers with per-worker
/// deques and work stealing, blocking until every task has finished.
///
/// Task i is dealt onto deque i % threads; a worker pops its OWN deque
/// front-to-back (preserving the batch's locality — consecutive chunks of
/// one campaign cell stay on one worker while it keeps up), and when its
/// deque drains it STEALS from the back of the busiest sibling — so a
/// worker that finishes a run of cheap tasks immediately relieves whoever
/// holds the expensive ones.  Tasks must not submit further tasks: the
/// batch is closed, which is what makes "every deque empty" a correct
/// termination condition.
///
/// Returns the number of successful steals (tasks executed by a worker
/// other than the one they were dealt to).
///
/// Determinism: like ThreadPool, stealing only changes WHICH worker runs
/// a task and WHEN, never what the task computes — callers uphold the
/// index-derived-RNG / disjoint-output contract (core/execution_backend).
std::uint64_t RunStealingBatch(unsigned threads,
                               std::vector<std::function<void()>> tasks);

/// Runs `body(i)` for i in [0, count) across `threads` workers in contiguous
/// chunks, blocking until completion.  With threads <= 1 runs inline.
void ParallelFor(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& body);

/// Chunked variant: `body(begin, end)` over disjoint ranges covering
/// [0, count).  Lower dispatch overhead for tight per-item loops.
void ParallelForChunked(
    unsigned threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_THREAD_POOL_HPP_
