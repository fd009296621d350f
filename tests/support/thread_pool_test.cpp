// Tests for the work-stealing batch pool.

#include "support/thread_pool.hpp"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

TEST(RunStealingBatchTest, ExecutesEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> visits(257);  // prime-ish: uneven deal
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < visits.size(); ++i) {
    tasks.emplace_back([&visits, i] { visits[i].fetch_add(1); });
  }
  RunStealingBatch(4, std::move(tasks));
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(RunStealingBatchTest, SingleWorkerRunsInlineWithNoSteals) {
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.emplace_back([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(RunStealingBatch(1, std::move(tasks)), 0u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(RunStealingBatchTest, EmptyBatchIsNoop) {
  EXPECT_EQ(RunStealingBatch(4, {}), 0u);
}

// Force the imbalance the scheduler exists to fix: worker 0 owns one task
// that blocks until every other task has run.  Without stealing the other
// tasks dealt to worker 0's deque could only run after the blocker — so
// the batch completing proves siblings stole them (and the returned count
// records it).
TEST(RunStealingBatchTest, IdleWorkersStealFromTheBusyOne) {
  constexpr int kTasks = 16;  // dealt round-robin onto 4 deques
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&done] {
    // Task 0 (worker 0's deque front) waits for the rest of the batch.
    while (done.load() < kTasks - 1) std::this_thread::yield();
    done.fetch_add(1);
  });
  for (int i = 1; i < kTasks; ++i) {
    tasks.emplace_back([&done] { done.fetch_add(1); });
  }
  const std::uint64_t steals = RunStealingBatch(4, std::move(tasks));
  EXPECT_EQ(done.load(), kTasks);
  // Worker 0 is stuck behind the blocker, so its remaining 3 tasks (4, 8,
  // 12) must have been stolen for the blocker ever to release.
  EXPECT_GE(steals, 3u);
}

// A throwing task must reach the caller, not std::terminate the process
// from a worker thread, and the rest of the batch still runs.
TEST(RunStealingBatchTest, TasksAreFreedOnTheCallingThread) {
  // Workers only run tasks.  A worker that freed a closure allocated on
  // the caller would recycle that memory for its own hot data, beside
  // other workers' data.
  struct Probe {
    Probe(std::mutex* m, std::vector<std::thread::id>* ids)
        : mutex(m), freed_on(ids) {}
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
    std::mutex* mutex;
    std::vector<std::thread::id>* freed_on;
    ~Probe() {
      const std::lock_guard<std::mutex> lock(*mutex);
      freed_on->push_back(std::this_thread::get_id());
    }
  };
  std::mutex mutex;
  std::vector<std::thread::id> freed_on;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    auto probe = std::make_shared<Probe>(&mutex, &freed_on);
    tasks.emplace_back([probe] { std::this_thread::yield(); });
  }
  RunStealingBatch(4, std::move(tasks));
  ASSERT_EQ(freed_on.size(), 16u);
  for (const std::thread::id id : freed_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(RunStealingBatchTest, FirstTaskExceptionIsRethrownAfterJoin) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.emplace_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("task 5 failed");
    });
  }
  EXPECT_THROW(RunStealingBatch(4, std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace fairchain
