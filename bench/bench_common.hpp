// Shared plumbing for the experiment harness binaries.

#ifndef FAIRCHAIN_BENCH_BENCH_COMMON_HPP_
#define FAIRCHAIN_BENCH_BENCH_COMMON_HPP_

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/experiments.hpp"
#include "core/monte_carlo.hpp"
#include "support/table.hpp"

namespace fairchain::bench {

/// Standard simulation configuration for a figure at paper scale.
inline core::SimulationConfig FigureConfig(std::uint64_t steps,
                                           std::uint64_t replications,
                                           std::size_t checkpoints = 50) {
  core::SimulationConfig config;
  config.steps = steps;
  config.replications = replications;
  config.seed = 20210620;
  config.checkpoints = core::LinearCheckpoints(config.steps, checkpoints);
  return config;
}

/// Prints the standard banner for an experiment binary.
inline void Banner(const std::string& id, const std::string& what,
                   const core::SimulationConfig& config) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("horizon n = %llu, replications = %llu\n",
              static_cast<unsigned long long>(config.steps),
              static_cast<unsigned long long>(config.replications));
  std::printf("================================================================\n\n");
}

}  // namespace fairchain::bench

#endif  // FAIRCHAIN_BENCH_BENCH_COMMON_HPP_
