// Tests for the thread pool and ParallelFor helpers.

#include "support/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SubmitBatchExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 256; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(tasks));
  pool.Wait();
  EXPECT_EQ(counter.load(), 256);
}

TEST(ThreadPoolTest, SubmitBatchEmptyIsNoop) {
  ThreadPool pool(2);
  pool.SubmitBatch({});
  pool.Wait();  // must not deadlock on a zero-task batch
  SUCCEED();
}

TEST(ThreadPoolTest, SubmitBatchMixesWithSubmit) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(tasks));
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 12);
}

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

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<int> visits(1000, 0);
  ParallelFor(4, visits.size(), [&visits](std::size_t i) { visits[i] += 1; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(4, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::vector<int> visits(50, 0);
  ParallelFor(1, visits.size(), [&visits](std::size_t i) { visits[i] += 1; });
  const int total = std::accumulate(visits.begin(), visits.end(), 0);
  EXPECT_EQ(total, 50);
}

TEST(ParallelForChunkedTest, ChunksCoverRangeDisjointly) {
  const std::size_t count = 997;  // prime: uneven chunks
  std::vector<std::atomic<int>> visits(count);
  ParallelForChunked(8, count, [&visits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForChunkedTest, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> visits(3);
  ParallelForChunked(16, 3, [&visits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForChunkedTest, ResultIndependentOfThreadCount) {
  auto run = [](unsigned threads) {
    std::vector<double> out(256);
    ParallelForChunked(threads, out.size(),
                       [&out](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           out[i] = static_cast<double>(i * i);
                         }
                       });
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

}  // namespace
}  // namespace fairchain
