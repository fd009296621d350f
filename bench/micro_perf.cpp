// Microbenchmarks (google-benchmark): throughput of the substrates the
// experiment harness is built on — hashes, 256-bit arithmetic, samplers,
// the population metrics, the reduction, and the Monte Carlo engine end to
// end.  Per-protocol stepping is timed by hotpath_bench's BM_Batched_*
// families.

#include <benchmark/benchmark.h>

#include "core/monte_carlo.hpp"
#include "core/population.hpp"
#include "crypto/sha256.hpp"
#include "math/distributions.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/win_probability.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/u256.hpp"

namespace {

using namespace fairchain;

void BM_Sha256_64B(benchmark::State& state) {
  std::uint8_t data[64] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256Digest(data, sizeof(data)));
    data[0]++;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_U256_Division(benchmark::State& state) {
  const U256 numerator = U256::FromHex(
      "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
  U256 denominator = U256::FromHex("1234567890abcdef1234567");
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerator / denominator);
  }
}
BENCHMARK(BM_U256_Division);

void BM_U256_MulDivU64(benchmark::State& state) {
  const U256 value = U256::FromHex(
      "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210");
  for (auto _ : state) {
    benchmark::DoNotOptimize(value.MulDivU64(123456789, 987654321));
  }
}
BENCHMARK(BM_U256_MulDivU64);

void BM_RngNextDouble(benchmark::State& state) {
  RngStream rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextDouble());
}
BENCHMARK(BM_RngNextDouble);

void BM_SampleBinomial32(benchmark::State& state) {
  RngStream rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::SampleBinomial(rng, 32, 0.2));
  }
}
BENCHMARK(BM_SampleBinomial32);

void BM_SlPosLemma61Integral(benchmark::State& state) {
  const std::vector<double> stakes = {0.1, 0.15, 0.2, 0.25, 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocol::SlPosMultiMinerWinProbability(stakes, 0));
  }
}
BENCHMARK(BM_SlPosLemma61Integral);

// Per-checkpoint reduction scratch, as ReduceToResult uses it: one
// hoisted buffer sorted in place (QuantilesInPlace) and a single reused
// output vector, so a 120-checkpoint reduction
// (BM_ReduceToResult120Checkpoints) runs allocation-quiet next to the
// zero-allocation stepping core.
void BM_QuantilesReusedScratch(benchmark::State& state) {
  RngStream rng(11);
  std::vector<double> source(10000);
  for (double& v : source) v = rng.NextDouble();
  const std::vector<double> qs = {0.05, 0.25, 0.5, 0.75, 0.95};
  std::vector<double> column(source.size());
  std::vector<double> out;
  for (auto _ : state) {
    // The reduction's actual shape: refill the hoisted buffer from the
    // matrix column, then sort it in place.
    std::copy(source.begin(), source.end(), column.begin());
    QuantilesInPlace(column, qs, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QuantilesReusedScratch)->Unit(benchmark::kMicrosecond);

// Arg 0: λ rows only; arg 1: with the four population planes, which the
// reduction folds into the λ pass.
void BM_ReduceToResult120Checkpoints(benchmark::State& state) {
  core::SimulationConfig config;
  config.steps = 5000;
  config.replications = 2000;
  config.checkpoints = core::LinearCheckpoints(5000, 120);
  config.population_metrics = state.range(0) != 0;
  RngStream rng(12);
  std::vector<double> lambda(config.checkpoints.size() *
                             config.replications);
  for (double& v : lambda) v = rng.NextDouble();
  std::vector<double> population;
  if (config.population_metrics) {
    population.resize(core::PopulationMatrixSize(config));
    for (double& v : population) v = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ReduceToResult("bench", {0.2, 0.8}, config,
                                                  core::FairnessSpec{}, lambda,
                                                  population));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(config.checkpoints.size()));
}
BENCHMARK(BM_ReduceToResult120Checkpoints)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// One population measurement of a mid-game state: m miners with stakes
// 1/(i+1), 240 ML-PoS steps (the verify horizon), so at m = 1000 about a
// hundred miners are credited (the merge) and at m <= 10 all of them (the
// d = m sort); the `credited` counter reports d.
void BM_MeasurePopulation(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<double> stakes(m);
  for (std::size_t i = 0; i < m; ++i) {
    stakes[i] = 1.0 / static_cast<double>(i + 1);
  }
  protocol::StakeState game(stakes);
  RngStream rng(13);
  protocol::MlPosModel(0.01).RunSteps(game, 0, 240, rng);
  core::PopulationMeter meter(game);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.Measure(game));
  }
  state.counters["credited"] =
      static_cast<double>(game.credited_miners().size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MeasurePopulation)->Arg(2)->Arg(10)->Arg(1000);

void BM_MonteCarloCampaign(benchmark::State& state) {
  protocol::MlPosModel model(0.01);
  core::SimulationConfig config;
  config.steps = 1000;
  config.replications = 100;
  config.threads = 1;
  config.checkpoints = {1000};
  core::MonteCarloEngine engine(config, core::FairnessSpec{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RunTwoMiner(model, 0.2));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100 *
                          1000);
}
BENCHMARK(BM_MonteCarloCampaign)->Unit(benchmark::kMillisecond);

}  // namespace
