#include "core/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/stats.hpp"

namespace fairchain::core {

void SimulationConfig::Validate() const {
  if (steps == 0) {
    throw std::invalid_argument("SimulationConfig: steps must be > 0");
  }
  if (replications == 0) {
    throw std::invalid_argument("SimulationConfig: replications must be > 0");
  }
  if (checkpoints.empty()) {
    throw std::invalid_argument(
        "SimulationConfig: checkpoints must not be empty");
  }
  std::uint64_t previous = 0;
  for (const std::uint64_t cp : checkpoints) {
    if (cp == 0 || cp > steps) {
      throw std::invalid_argument(
          "SimulationConfig: checkpoints must lie in [1, steps]");
    }
    if (cp <= previous) {
      throw std::invalid_argument(
          "SimulationConfig: checkpoints must be strictly ascending");
    }
    previous = cp;
  }
}

const CheckpointStats& SimulationResult::Final() const {
  if (checkpoints.empty()) {
    throw std::logic_error("SimulationResult: no checkpoints recorded");
  }
  return checkpoints.back();
}

std::optional<std::uint64_t> SimulationResult::ConvergenceStep() const {
  std::optional<std::uint64_t> candidate;
  for (const auto& cp : checkpoints) {
    if (cp.unfair_probability <= spec.delta) {
      if (!candidate) candidate = cp.step;
    } else {
      candidate.reset();
    }
  }
  return candidate;
}

ExpectationalFairnessReport SimulationResult::Expectational() const {
  if (final_lambdas.empty()) {
    throw std::logic_error(
        "SimulationResult: final_lambdas were not retained — run with "
        "keep_final_lambdas on to evaluate expectational fairness");
  }
  return CheckExpectationalFairness(final_lambdas, initial_share);
}

std::size_t PopulationMatrixSize(const SimulationConfig& config) {
  return kPopulationMetricCount * config.checkpoints.size() *
         static_cast<std::size_t>(config.replications);
}

std::size_t ReplicationRowCount(const SimulationConfig& config) {
  return (config.population_metrics ? 1 + kPopulationMetricCount : 1) *
         config.checkpoints.size();
}

void ScatterChunk(const std::vector<double>& payload, std::size_t begin,
                  std::size_t end, std::size_t replications, double* matrix) {
  const std::size_t span = end - begin;
  const std::size_t rows = span == 0 ? 0 : payload.size() / span;
  for (std::size_t row = 0; row < rows; ++row) {
    std::copy_n(payload.data() + row * span, span,
                matrix + row * replications + begin);
  }
}

void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* out,
                         ReplicationWorkspace& workspace) {
  if (config.miner >= initial_stakes.size()) {
    throw std::invalid_argument(
        "RunReplicationRange: miner index out of range");
  }
  // Same rationale as the miner check: this is a public entry point, and a
  // non-ascending checkpoint schedule would underflow the segment length
  // below into a ~2^64-step spin instead of degrading benignly.
  config.Validate();
  if (end > config.replications || begin > end) {
    throw std::invalid_argument(
        "RunReplicationRange: replication range out of bounds");
  }
  static auto& range_ns =
      obs::MetricsRegistry::Global().GetHistogram("mc.replication_range_ns");
  obs::ScopedLatency latency(range_ns);
  obs::Span range_span("mc.replication_range",
                       static_cast<std::uint64_t>(end - begin));
  const std::size_t span = end - begin;
  const std::size_t cp_count = config.checkpoints.size();
  // Population planes follow the cp_count λ rows.
  double* population = config.population_metrics ? out + cp_count * span
                                                  : nullptr;
  const RngStream master(config.seed);
  workspace.Bind(initial_stakes, config.withhold_period);
  protocol::StakeState& state = workspace.state();
  PopulationMeter* meter =
      population != nullptr ? &workspace.population_meter() : nullptr;
  for (std::size_t rep = begin; rep < end; ++rep) {
    state.Reset();
    RngStream rng = master.Split(rep);
    // Checkpoint-segment stepping: one batched RunSteps per segment, so
    // the per-step work is the protocol's tight inner loop and the
    // checkpoint comparison runs once per segment, not once per block.
    // Draw-for-draw identical to the historical Step-at-a-time loop.
    std::uint64_t done = 0;
    for (std::size_t cp = 0; cp < cp_count; ++cp) {
      const std::uint64_t target = config.checkpoints[cp];
      model.RunSteps(state, done, target - done, rng);
      done = target;
      const std::size_t cell = cp * span + (rep - begin);
      out[cell] = state.RewardFraction(config.miner);
      if (population != nullptr) {
        const PopulationSnapshot snapshot = meter->Measure(state);
        const std::size_t plane = cp_count * span;
        population[0 * plane + cell] = snapshot.gini;
        population[1 * plane + cell] = snapshot.hhi;
        population[2 * plane + cell] = snapshot.nakamoto;
        population[3 * plane + cell] = snapshot.top_decile_share;
      }
    }
    // Games historically ran to the horizon even when the last checkpoint
    // fell short of it; the tail segment keeps that contract (and the
    // documented "runs a full game" semantics) intact.
    if (done < config.steps) {
      model.RunSteps(state, done, config.steps - done, rng);
    }
  }
}

void RunReplicationRange(const protocol::IncentiveModel& model,
                         const std::vector<double>& initial_stakes,
                         const SimulationConfig& config, std::size_t begin,
                         std::size_t end, double* out) {
  RunReplicationRange(model, initial_stakes, config, begin, end, out,
                      ThreadLocalReplicationWorkspace());
}

SimulationResult ReduceToResult(
    const std::string& protocol_name,
    const std::vector<double>& initial_stakes, const SimulationConfig& config,
    const FairnessSpec& spec, std::span<const double> lambda_matrix,
    std::span<const double> population_matrix) {
  if (config.miner >= initial_stakes.size()) {
    throw std::invalid_argument("ReduceToResult: miner index out of range");
  }
  if (!population_matrix.empty() &&
      population_matrix.size() != PopulationMatrixSize(config)) {
    throw std::invalid_argument(
        "ReduceToResult: population matrix size mismatch");
  }
  const std::uint64_t reps = config.replications;
  const std::size_t cp_count = config.checkpoints.size();

  SimulationResult result;
  result.protocol = protocol_name;
  {
    double total = 0.0;
    for (const double s : initial_stakes) total += s;
    result.initial_share = initial_stakes[config.miner] / total;
  }
  result.spec = spec;
  result.config = config;
  result.checkpoints.reserve(cp_count);

  const double fair_low = spec.FairLow(result.initial_share);
  const double fair_high = spec.FairHigh(result.initial_share);
  // Reduction scratch, hoisted out of the checkpoint loop: one column
  // buffer (permuted in place per checkpoint), one quantile output vector
  // and the quantile selection's bucket counts serve every checkpoint —
  // the per-checkpoint copy Quantiles used to make was the reduction's
  // dominant allocation churn (see bench/micro_perf.cpp,
  // BM_ReduceToResult).
  std::vector<double> column(reps);
  std::vector<double> quantile_out;
  std::vector<std::size_t> quantile_scratch;
  static const std::vector<double> kQuantiles = {0.05, 0.25, 0.5, 0.75,
                                                 0.95};
  const bool population = !population_matrix.empty();
  const std::size_t plane = cp_count * reps;
  for (std::size_t c = 0; c < cp_count; ++c) {
    CheckpointStats stats;
    stats.step = config.checkpoints[c];
    // One pass over the replications feeds every chain: the λ column copy,
    // Welford, the fair-band count and the four population sums.  Each
    // chain still adds in replication order, so the results are the bits
    // of one loop per chain, but the independent chains overlap.
    const double* lambdas = lambda_matrix.data() + c * reps;
    const double* planes[kPopulationMetricCount] = {};
    if (population) {
      for (std::size_t metric = 0; metric < kPopulationMetricCount;
           ++metric) {
        planes[metric] = population_matrix.data() + metric * plane + c * reps;
      }
    }
    RunningStats running;
    std::size_t outside = 0;
    KahanSum sums[kPopulationMetricCount];
    for (std::uint64_t r = 0; r < reps; ++r) {
      const double lambda = lambdas[r];
      column[r] = lambda;
      running.Add(lambda);
      if (lambda < fair_low || lambda > fair_high) ++outside;
      if (population) {
        for (std::size_t metric = 0; metric < kPopulationMetricCount;
             ++metric) {
          sums[metric].Add(planes[metric][r]);
        }
      }
    }
    stats.mean = running.Mean();
    stats.std_dev = running.StdDev();
    stats.min = running.Min();
    stats.max = running.Max();
    stats.unfair_probability =
        static_cast<double>(outside) / static_cast<double>(reps);
    if (population) {
      double* means[] = {&stats.gini, &stats.hhi, &stats.nakamoto,
                         &stats.top_decile_share};
      for (std::size_t metric = 0; metric < kPopulationMetricCount;
           ++metric) {
        *means[metric] = sums[metric].Total() / static_cast<double>(reps);
      }
    }
    // final_lambdas keeps replication order, so capture the last column
    // BEFORE the in-place quantile selection reorders it.
    if (c + 1 == cp_count && config.keep_final_lambdas) {
      result.final_lambdas = column;
    }
    QuantilesInPlace(column, kQuantiles, &quantile_out, &quantile_scratch);
    stats.p05 = quantile_out[0];
    stats.p25 = quantile_out[1];
    stats.median = quantile_out[2];
    stats.p75 = quantile_out[3];
    stats.p95 = quantile_out[4];
    result.checkpoints.push_back(stats);
  }
  return result;
}

std::vector<std::uint64_t> LinearCheckpoints(std::uint64_t steps,
                                             std::size_t count) {
  if (steps == 0) {
    throw std::invalid_argument("LinearCheckpoints: steps must be > 0");
  }
  if (count == 0 || count > steps) count = static_cast<std::size_t>(steps);
  std::vector<std::uint64_t> checkpoints;
  checkpoints.reserve(count);
  for (std::size_t k = 1; k <= count; ++k) {
    // 128-bit intermediate: steps * k wraps std::uint64_t for horizons
    // beyond 2^64 / count, which silently produced non-monotone schedules.
    const std::uint64_t cp = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(steps) * k / count);
    if (checkpoints.empty() || cp > checkpoints.back()) {
      checkpoints.push_back(cp);
    }
  }
  return checkpoints;
}

std::vector<std::uint64_t> LogCheckpoints(std::uint64_t steps,
                                          std::size_t count,
                                          std::uint64_t first) {
  if (steps == 0 || first == 0 || first > steps) {
    throw std::invalid_argument("LogCheckpoints: need 0 < first <= steps");
  }
  if (count < 2) throw std::invalid_argument("LogCheckpoints: count >= 2");
  std::vector<std::uint64_t> checkpoints;
  const double log_first = std::log(static_cast<double>(first));
  const double log_last = std::log(static_cast<double>(steps));
  for (std::size_t k = 0; k < count; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(count - 1);
    const double value = std::exp(log_first + t * (log_last - log_first));
    // Clamp in the double domain BEFORE converting: exp/log rounding can
    // land above `steps` (breaking the strict-ascent invariant once `steps`
    // was appended), and for horizons beyond 2^63 llround would overflow
    // long long with an unspecified result.  value + 0.5 stays below 2^64
    // here, so the direct conversion is well-defined round-to-nearest.
    std::uint64_t cp;
    if (!(value < static_cast<double>(steps))) {
      cp = steps;
    } else {
      cp = std::min(steps, static_cast<std::uint64_t>(value + 0.5));
    }
    if (checkpoints.empty() || cp > checkpoints.back()) {
      checkpoints.push_back(cp);
    }
  }
  if (checkpoints.back() != steps) checkpoints.push_back(steps);
  return checkpoints;
}

}  // namespace fairchain::core
