#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>

#include "support/fault_injection.hpp"

namespace fairchain {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = std::max(1u, threads);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto& task : tasks) tasks_.push(std::move(task));
    in_flight_ += tasks.size();
  }
  task_available_.notify_all();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

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
      task();
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
  return steals.load(std::memory_order_relaxed);
}

void ParallelFor(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  ParallelForChunked(threads, count,
                     [&body](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) body(i);
                     });
}

void ParallelForChunked(
    unsigned threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    body(0, count);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, count));
  ThreadPool pool(workers);
  const std::size_t chunk = (count + workers - 1) / workers;
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(count, begin + chunk);
    pool.Submit([&body, begin, end] { body(begin, end); });
  }
  pool.Wait();
}

}  // namespace fairchain
