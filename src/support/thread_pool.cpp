#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "support/fault_injection.hpp"

namespace fairchain {

namespace {

// One worker's deque.  A mutex per deque is ample here: the callers
// schedule multi-hundred-microsecond chunks, so even a pathological steal
// storm spends a vanishing fraction of its time under these locks.
struct StealableDeque {
  std::mutex mutex;
  std::deque<std::function<void()>> tasks;
};

}  // namespace

std::uint64_t RunStealingBatch(unsigned threads,
                               std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return 0;
  const unsigned workers = std::max(1u, threads);
  if (workers == 1) {
    for (auto& task : tasks) task();
    return 0;
  }
  // unique_ptr keeps each deque's mutex at a stable address.
  std::vector<std::unique_ptr<StealableDeque>> deques;
  deques.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    deques.push_back(std::make_unique<StealableDeque>());
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    deques[i % workers]->tasks.push_back(std::move(tasks[i]));
  }
  std::atomic<std::uint64_t> steals{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;  // first exception any task threw

  auto worker_loop = [&](unsigned self) {
    std::uint64_t executed = 0;
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(deques[self]->mutex);
        if (!deques[self]->tasks.empty()) {
          task = std::move(deques[self]->tasks.front());
          deques[self]->tasks.pop_front();
        }
      }
      while (!task) {
        // Steal from the sibling with the largest backlog: relieving the
        // most loaded worker minimises the makespan when one deque holds
        // an expensive cell's chunks.  Sizes are sampled one lock at a
        // time, so a pick can race empty — rescan until a steal lands or
        // every deque is drained.
        unsigned victim = workers;
        std::size_t victim_backlog = 0;
        for (unsigned v = 0; v < workers; ++v) {
          if (v == self) continue;
          std::lock_guard<std::mutex> lock(deques[v]->mutex);
          if (deques[v]->tasks.size() > victim_backlog) {
            victim = v;
            victim_backlog = deques[v]->tasks.size();
          }
        }
        if (victim == workers) break;
        std::lock_guard<std::mutex> lock(deques[victim]->mutex);
        if (deques[victim]->tasks.empty()) continue;
        task = std::move(deques[victim]->tasks.back());
        deques[victim]->tasks.pop_back();
        steals.fetch_add(1, std::memory_order_relaxed);
      }
      // The batch is closed (tasks never submit tasks), so an empty sweep
      // means this worker is permanently out of work.
      if (!task) return;
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
      // Fault site "pool-task": index = worker id, count = tasks that
      // worker has finished.  A stall here pins one worker mid-batch and
      // forces its siblings to steal the rest of its deque — the
      // worst-case interleaving the golden determinism tests replay.
      MaybeInjectFault("pool-task", self, ++executed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back(worker_loop, w);
  }
  for (std::thread& worker : pool) worker.join();
  if (failure) std::rethrow_exception(failure);
  return steals.load(std::memory_order_relaxed);
}

}  // namespace fairchain
