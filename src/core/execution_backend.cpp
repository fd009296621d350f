#include "core/execution_backend.hpp"

#include <chrono>
#include <stdexcept>

#include "core/shard_executor.hpp"
#include "obs/metrics.hpp"
#include "support/env.hpp"
#include "support/flags.hpp"
#include "support/thread_pool.hpp"

namespace fairchain::core {

namespace {

// One in-process chunk: compute it, time it, commit it.
void ComputeAndConsume(std::size_t index, const ChunkComputeFn& compute,
                       const ChunkConsumeFn& consume) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> payload = compute(index);
  const auto busy_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  consume(index, std::move(payload), busy_ns);
}

}  // namespace

void SerialBackend::Run(const std::vector<std::size_t>& order,
                        const ChunkComputeFn& compute,
                        const ChunkConsumeFn& consume) const {
  for (const std::size_t index : order) {
    ComputeAndConsume(index, compute, consume);
  }
}

ThreadPoolBackend::ThreadPoolBackend(unsigned threads)
    : threads_(threads != 0 ? threads : EnvThreads()) {
  if (threads_ > kMaxWorkers) {
    throw std::invalid_argument(
        "ThreadPoolBackend: thread count must be in [1, " +
        std::to_string(kMaxWorkers) + "], got " + std::to_string(threads_));
  }
}

unsigned ThreadPoolBackend::Concurrency() const { return threads_; }

void ThreadPoolBackend::Run(const std::vector<std::size_t>& order,
                            const ChunkComputeFn& compute,
                            const ChunkConsumeFn& consume) const {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(order.size());
  for (const std::size_t index : order) {
    tasks.push_back([index, &compute, &consume] {
      ComputeAndConsume(index, compute, consume);
    });
  }
  const std::uint64_t steals = RunStealingBatch(threads_, std::move(tasks));
  if (steals != 0) {
    static auto& steal_count =
        obs::MetricsRegistry::Global().GetCounter("campaign.steal_count");
    steal_count.Add(steals);
  }
}

ShardBackend::ShardBackend(unsigned shards) : shards_(shards) {
  if (shards_ == 0 || shards_ > kMaxWorkers) {
    throw std::invalid_argument("ShardBackend: shard count must be in [1, " +
                                std::to_string(kMaxWorkers) + "]");
  }
}

std::string ShardBackend::name() const {
  return "shard:" + std::to_string(shards_);
}

void ShardBackend::Run(const std::vector<std::size_t>& order,
                       const ChunkComputeFn& compute,
                       const ChunkConsumeFn& consume) const {
  RunSharded(shards_, order, compute, consume);
}

std::unique_ptr<ExecutionBackend> MakeDefaultBackend(unsigned threads) {
  if (threads == 0) threads = EnvThreads();
  if (threads <= 1) return std::make_unique<SerialBackend>();
  return std::make_unique<ThreadPoolBackend>(threads);
}

namespace {

constexpr char kKnownBackends[] = "serial, pool, shard:<N>";

[[noreturn]] void ThrowUnknownBackend(const std::string& name) {
  std::string message = "MakeBackend: unknown backend '" + name +
                        "' (known: " + kKnownBackends + ")";
  // Suggest only close misspellings (the FlagSet::RejectUnknown bound).
  const std::string best =
      ClosestName(name, {"serial", "pool", "threadpool", "shard"}, 3);
  if (!best.empty()) message += "; did you mean '" + best + "'?";
  throw std::invalid_argument(message);
}

unsigned ParseShardCount(const std::string& name) {
  const std::string count = name.substr(6);  // after "shard:"
  if (count.empty() ||
      count.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(
        "MakeBackend: 'shard:' needs a positive worker count, got '" + name +
        "' (e.g. shard:4)");
  }
  unsigned long shards = 0;
  try {
    shards = std::stoul(count);
  } catch (const std::out_of_range&) {
    shards = 0;  // falls through to the range error below
  }
  if (shards == 0 || shards > kMaxWorkers) {
    throw std::invalid_argument("MakeBackend: shard count must be in [1, " +
                                std::to_string(kMaxWorkers) + "], got '" +
                                count + "'");
  }
  return static_cast<unsigned>(shards);
}

}  // namespace

std::unique_ptr<ExecutionBackend> MakeBackend(const std::string& name,
                                              unsigned threads) {
  if (name == "serial") return std::make_unique<SerialBackend>();
  if (name == "pool" || name == "threadpool") {
    return std::make_unique<ThreadPoolBackend>(threads);
  }
  if (name.rfind("shard:", 0) == 0) {
    return std::make_unique<ShardBackend>(ParseShardCount(name));
  }
  if (name == "shard") {
    throw std::invalid_argument(
        "MakeBackend: 'shard' needs a worker count — use shard:<N> "
        "(e.g. shard:4)");
  }
  ThrowUnknownBackend(name);
}

}  // namespace fairchain::core
