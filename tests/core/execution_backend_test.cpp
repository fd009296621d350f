// ExecutionBackend: the one chunk contract on the serial reference, the
// thread pool and the forked shards, the factory helpers, and — the
// property everything else leans on — that a campaign's cell results are
// byte-identical on every backend.

#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "core/monte_carlo.hpp"
#include "sim/campaign.hpp"

namespace fairchain::core {
namespace {

// compute(j) = {j, 2j}: a payload that proves which chunk produced it.
std::vector<double> EchoPayload(std::size_t j) {
  return {static_cast<double>(j), 2.0 * static_cast<double>(j)};
}

// Runs `order` on `backend`, returning each chunk's consumed payload by
// index (consume is thread-safe, as the contract demands).
std::vector<std::vector<double>> RunEcho(
    const ExecutionBackend& backend, const std::vector<std::size_t>& order) {
  std::mutex mutex;
  std::vector<std::vector<double>> consumed(order.size());
  backend.Run(order, EchoPayload,
              [&](std::size_t j, std::vector<double>&& payload,
                  std::uint64_t) {
                std::lock_guard<std::mutex> lock(mutex);
                consumed[j] = std::move(payload);
              });
  return consumed;
}

TEST(ExecutionBackendTest, SerialRunsEveryChunkInOrder) {
  SerialBackend backend;
  EXPECT_EQ(backend.name(), "serial");
  EXPECT_EQ(backend.Concurrency(), 1u);
  std::vector<std::size_t> computed;
  std::vector<std::size_t> consumed;
  backend.Run(
      {3, 1, 4, 0, 2},
      [&computed](std::size_t j) {
        computed.push_back(j);
        return EchoPayload(j);
      },
      [&consumed](std::size_t j, std::vector<double>&& payload,
                  std::uint64_t) {
        EXPECT_EQ(payload, EchoPayload(j));
        consumed.push_back(j);
      });
  EXPECT_EQ(computed, (std::vector<std::size_t>{3, 1, 4, 0, 2}));
  EXPECT_EQ(consumed, computed);
}

// Every backend computes and consumes every chunk exactly once, with the
// payload its compute produced — in-process and across forked workers.
TEST(ExecutionBackendTest, EveryBackendConsumesEveryPayload) {
  std::vector<std::size_t> order(64);
  std::iota(order.rbegin(), order.rend(), std::size_t{0});
  const SerialBackend serial;
  const ThreadPoolBackend pool(3);
  const ShardBackend shard(2);
  const std::vector<const ExecutionBackend*> backends = {&serial, &pool,
                                                         &shard};
  for (const ExecutionBackend* backend : backends) {
    const auto consumed = RunEcho(*backend, order);
    for (std::size_t j = 0; j < order.size(); ++j) {
      EXPECT_EQ(consumed[j], EchoPayload(j)) << backend->name();
    }
  }
}

TEST(ExecutionBackendTest, RunIsReentrant) {
  const ThreadPoolBackend backend(2);
  for (int round = 0; round < 3; ++round) {
    const auto consumed = RunEcho(backend, {0, 1, 2, 3, 4, 5, 6, 7});
    EXPECT_EQ(consumed[7], EchoPayload(7));
  }
}

// A throwing consume on the pool reaches the caller instead of terminating
// the process from a worker thread.
TEST(ExecutionBackendTest, PoolPropagatesConsumeExceptions) {
  const ThreadPoolBackend backend(4);
  std::vector<std::size_t> order(16);
  std::iota(order.begin(), order.end(), std::size_t{0});
  EXPECT_THROW(backend.Run(order, EchoPayload,
                           [](std::size_t j, std::vector<double>&&,
                              std::uint64_t) {
                             if (j == 9) throw std::runtime_error("commit");
                           }),
               std::runtime_error);
}

TEST(ExecutionBackendTest, ThreadPoolRejectsCountsAboveTheCap) {
  EXPECT_EQ(ThreadPoolBackend(kMaxWorkers).Concurrency(), kMaxWorkers);
  EXPECT_THROW(ThreadPoolBackend{kMaxWorkers + 1}, std::invalid_argument);
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

TEST(ExecutionBackendTest, ShardBackendNamesItsWorkers) {
  const ShardBackend backend(3);
  EXPECT_EQ(backend.name(), "shard:3");
  EXPECT_EQ(backend.Concurrency(), 3u);
  EXPECT_THROW(ShardBackend{0}, std::invalid_argument);
  EXPECT_THROW(ShardBackend{kMaxWorkers + 1}, std::invalid_argument);
}

// One ML-PoS cell of `reps` replications over `steps` steps with two
// checkpoints, cut into chunks of `chunk` replications on `backend`.
SimulationResult RunCell(const ExecutionBackend& backend, std::uint64_t steps,
                         std::uint64_t reps, std::uint64_t chunk) {
  sim::ScenarioSpec spec;
  spec.protocols = {"mlpos"};
  spec.steps = steps;
  spec.replications = reps;
  spec.checkpoint_count = 2;
  sim::CampaignOptions options;
  options.backend = &backend;
  options.chunk_replications = chunk;
  return sim::CampaignRunner(options).Run(spec, {}).front().result;
}

// A campaign cell on every backend — the shard backend included, in forked
// workers — yields the same SimulationResult bytes: every checkpoint's
// statistics (NaN-carrying chain fields compared bitwise) and the retained
// final λ vector, which the campaign's CSV rows do not carry.
TEST(ExecutionBackendTest, CellResultBytesAreIdenticalOnEveryBackend) {
  const SerialBackend serial;
  const ThreadPoolBackend pool(4);
  const ShardBackend shard(2);
  const SimulationResult reference = RunCell(serial, 200, 24, 5);
  ASSERT_EQ(reference.checkpoints.size(), 2u);
  ASSERT_EQ(reference.final_lambdas.size(), 24u);
  const std::vector<const ExecutionBackend*> backends = {&pool, &shard};
  for (const ExecutionBackend* backend : backends) {
    const SimulationResult result = RunCell(*backend, 200, 24, 5);
    ASSERT_EQ(result.checkpoints.size(), reference.checkpoints.size());
    EXPECT_EQ(std::memcmp(result.checkpoints.data(),
                          reference.checkpoints.data(),
                          reference.checkpoints.size() *
                              sizeof(CheckpointStats)),
              0)
        << backend->name();
    ASSERT_EQ(result.final_lambdas.size(), reference.final_lambdas.size());
    EXPECT_EQ(std::memcmp(result.final_lambdas.data(),
                          reference.final_lambdas.data(),
                          reference.final_lambdas.size() * sizeof(double)),
              0)
        << backend->name();
  }
}

// The determinism contract across backends and chunkings: identical
// statistics and retained final λ vectors whether the replications ran
// inline as one chunk, on one worker, or on four in uneven chunks.
TEST(ExecutionBackendTest, CellResultsAreIdenticalAcrossBackends) {
  const SerialBackend serial;
  const ThreadPoolBackend one(1);
  const ThreadPoolBackend four(4);
  const SimulationResult a = RunCell(serial, 300, 60, 60);
  const SimulationResult b = RunCell(one, 300, 60, 7);
  const SimulationResult c = RunCell(four, 300, 60, 7);

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
