#include "core/execution_backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"

namespace fairchain::core {

void SerialBackend::Execute(std::vector<std::function<void()>> jobs) const {
  for (auto& job : jobs) job();
}

ThreadPoolBackend::ThreadPoolBackend(unsigned threads)
    : threads_(threads != 0 ? threads : EnvThreads()) {}

unsigned ThreadPoolBackend::Concurrency() const { return threads_; }

void ThreadPoolBackend::Execute(
    std::vector<std::function<void()>> jobs) const {
  const std::uint64_t steals = RunStealingBatch(threads_, std::move(jobs));
  if (steals != 0) {
    static auto& steal_count =
        obs::MetricsRegistry::Global().GetCounter("campaign.steal_count");
    steal_count.Add(steals);
  }
}

ShardBackend::ShardBackend(unsigned shards) : shards_(shards) {
  if (shards_ == 0) {
    throw std::invalid_argument("ShardBackend: need at least one shard");
  }
}

std::string ShardBackend::name() const {
  return "shard:" + std::to_string(shards_);
}

void ShardBackend::Execute(std::vector<std::function<void()>> jobs) const {
  // Correct fallback for callers that cannot marshal across processes
  // (see the class comment): inline serial execution, the determinism
  // reference.  The campaign runner never reaches this — it detects
  // ProcessShards() and ships chunks through RunSharded instead.
  for (auto& job : jobs) job();
}

std::unique_ptr<ExecutionBackend> MakeDefaultBackend(unsigned threads) {
  if (threads == 0) threads = EnvThreads();
  if (threads <= 1) return std::make_unique<SerialBackend>();
  return std::make_unique<ThreadPoolBackend>(threads);
}

namespace {

constexpr char kKnownBackends[] = "serial, pool, shard:<N>";

// Levenshtein distance, for "did you mean" suggestions (same contract as
// FlagSet::RejectUnknown: a typo must produce a pointed error, not a
// generic list).
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitute =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

[[noreturn]] void ThrowUnknownBackend(const std::string& name) {
  std::string message = "MakeBackend: unknown backend '" + name +
                        "' (known: " + kKnownBackends + ")";
  const char* candidates[] = {"serial", "pool", "threadpool", "shard"};
  std::size_t best_distance = 3;  // suggest only close misspellings
  const char* best = nullptr;
  for (const char* candidate : candidates) {
    const std::size_t distance = EditDistance(name, candidate);
    if (distance < best_distance) {
      best_distance = distance;
      best = candidate;
    }
  }
  if (best != nullptr) {
    message += "; did you mean '" + std::string(best) + "'?";
  }
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
  if (shards == 0 || shards > 4096) {
    throw std::invalid_argument(
        "MakeBackend: shard count must be in [1, 4096], got '" + count +
        "'");
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
