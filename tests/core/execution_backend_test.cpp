// ExecutionBackend: the serial reference, the thread-pool implementation,
// the factory helpers, and — the property everything else leans on — that
// MonteCarloEngine produces byte-identical results on every backend.

#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "core/monte_carlo.hpp"
#include "protocol/ml_pos.hpp"

namespace fairchain::core {
namespace {

TEST(ExecutionBackendTest, SerialRunsEveryJobInSubmissionOrder) {
  SerialBackend backend;
  EXPECT_EQ(backend.name(), "serial");
  EXPECT_EQ(backend.Concurrency(), 1u);
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back([&order, i] { order.push_back(i); });
  }
  backend.Execute(std::move(jobs));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExecutionBackendTest, ThreadPoolRunsEveryJobToCompletion) {
  ThreadPoolBackend backend(3);
  EXPECT_EQ(backend.name(), "threadpool");
  EXPECT_EQ(backend.Concurrency(), 3u);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([&count] { count.fetch_add(1); });
  }
  backend.Execute(std::move(jobs));  // Execute blocks until all finish
  EXPECT_EQ(count.load(), 64);
}

TEST(ExecutionBackendTest, ExecuteIsReentrant) {
  ThreadPoolBackend backend(2);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs(
        8, [&count] { count.fetch_add(1); });
    backend.Execute(std::move(jobs));
    EXPECT_EQ(count.load(), 8);
  }
}

TEST(ExecutionBackendTest, DefaultBackendSelectsSerialForOneWorker) {
  EXPECT_EQ(MakeDefaultBackend(1)->name(), "serial");
  EXPECT_EQ(MakeDefaultBackend(4)->name(), "threadpool");
  EXPECT_EQ(MakeDefaultBackend(4)->Concurrency(), 4u);
}

TEST(ExecutionBackendTest, MakeBackendResolvesNamesAndRejectsUnknown) {
  EXPECT_EQ(MakeBackend("serial", 4)->name(), "serial");
  EXPECT_EQ(MakeBackend("pool", 4)->name(), "threadpool");
  EXPECT_EQ(MakeBackend("threadpool", 2)->Concurrency(), 2u);
  EXPECT_THROW(MakeBackend("cluster", 4), std::invalid_argument);
}

TEST(ExecutionBackendTest, MakeBackendParsesShardCounts) {
  EXPECT_EQ(MakeBackend("shard:1", 0)->name(), "shard:1");
  EXPECT_EQ(MakeBackend("shard:4", 0)->Concurrency(), 4u);
  EXPECT_EQ(MakeBackend("shard:4096", 0)->Concurrency(), 4096u);
  EXPECT_EQ(MakeBackend("shard:2", 0)->ProcessShards(), 2u);
  // The in-process backends do not shard across processes.
  EXPECT_EQ(MakeBackend("serial", 0)->ProcessShards(), 0u);
  EXPECT_EQ(MakeBackend("pool", 4)->ProcessShards(), 0u);
}

// Error-path contract: every malformed shard spelling produces a pointed
// message, not a generic failure — the exact strings the CLI surfaces.
TEST(ExecutionBackendTest, MakeBackendRejectsMalformedShardCounts) {
  auto message_of = [](const std::string& name) {
    try {
      MakeBackend(name, 0);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_NE(message_of("shard").find("needs a worker count"),
            std::string::npos);
  EXPECT_NE(message_of("shard:").find("needs a positive worker count"),
            std::string::npos);
  EXPECT_NE(message_of("shard:0").find("must be in [1, 4096]"),
            std::string::npos);
  EXPECT_NE(message_of("shard:-3").find("needs a positive worker count"),
            std::string::npos);
  EXPECT_NE(message_of("shard:4097").find("must be in [1, 4096]"),
            std::string::npos);
  EXPECT_NE(message_of("shard:two").find("needs a positive worker count"),
            std::string::npos);
  EXPECT_NE(
      message_of("shard:99999999999999999999").find("must be in [1, 4096]"),
      std::string::npos);
}

TEST(ExecutionBackendTest, MakeBackendSuggestsClosestName) {
  auto message_of = [](const std::string& name) {
    try {
      MakeBackend(name, 0);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_NE(message_of("shrad").find("did you mean 'shard'"),
            std::string::npos);
  EXPECT_NE(message_of("serail").find("did you mean 'serial'"),
            std::string::npos);
  EXPECT_NE(message_of("pol").find("did you mean 'pool'"),
            std::string::npos);
  // Garbage far from every known name gets the list, no wild guess.
  const std::string garbage = message_of("xyzzy");
  EXPECT_NE(garbage.find("serial, pool, shard:<N>"), std::string::npos);
  EXPECT_EQ(garbage.find("did you mean"), std::string::npos);
}

TEST(ExecutionBackendTest, ShardBackendFallbackExecutesInline) {
  const ShardBackend backend(3);
  EXPECT_EQ(backend.name(), "shard:3");
  EXPECT_EQ(backend.Concurrency(), 3u);
  EXPECT_EQ(backend.ProcessShards(), 3u);
  EXPECT_THROW(ShardBackend{0}, std::invalid_argument);
  // The generic Execute is the inline-serial fallback (callers that cannot
  // marshal across processes, e.g. MonteCarloEngine::Run).
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back([&order, i] { order.push_back(i); });
  }
  backend.Execute(std::move(jobs));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ExecutionBackendTest, EngineResultsAreIdenticalOnShardFallback) {
  const protocol::MlPosModel model(0.01);
  SimulationConfig config;
  config.steps = 200;
  config.replications = 24;
  config.checkpoints = {100, 200};
  const MonteCarloEngine engine(config, FairnessSpec{});
  const SerialBackend serial;
  const ShardBackend sharded(2);
  const SimulationResult a = engine.Run(model, {0.2, 0.8}, serial);
  const SimulationResult b = engine.Run(model, {0.2, 0.8}, sharded);
  EXPECT_EQ(a.final_lambdas, b.final_lambdas);
}

// The determinism contract across backends at the engine level: identical
// λ trajectories, statistics, and retained final λ vectors whether the
// replications ran inline, on one worker, or on four.
TEST(ExecutionBackendTest, EngineResultsAreIdenticalAcrossBackends) {
  const protocol::MlPosModel model(0.01);
  SimulationConfig config;
  config.steps = 300;
  config.replications = 60;
  config.checkpoints = {100, 300};
  const MonteCarloEngine engine(config, FairnessSpec{});

  const SerialBackend serial;
  const ThreadPoolBackend one(1);
  const ThreadPoolBackend four(4);
  const SimulationResult a = engine.Run(model, {0.2, 0.8}, serial);
  const SimulationResult b = engine.Run(model, {0.2, 0.8}, one);
  const SimulationResult c = engine.Run(model, {0.2, 0.8}, four);

  ASSERT_EQ(a.final_lambdas.size(), 60u);
  EXPECT_EQ(a.final_lambdas, b.final_lambdas);
  EXPECT_EQ(a.final_lambdas, c.final_lambdas);
  ASSERT_EQ(a.checkpoints.size(), c.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].mean, c.checkpoints[i].mean);
    EXPECT_EQ(a.checkpoints[i].p05, c.checkpoints[i].p05);
    EXPECT_EQ(a.checkpoints[i].gini, c.checkpoints[i].gini);
  }
}

}  // namespace
}  // namespace fairchain::core
