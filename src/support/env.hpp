// Environment-variable helpers.
//
// FAIRCHAIN_THREADS sets the default worker-thread count wherever a caller
// passes 0 threads (the CLI's campaign and verify when --threads is absent):
//
//   FAIRCHAIN_THREADS=8 ./build/fairchain_cli campaign fig3

#ifndef FAIRCHAIN_SUPPORT_ENV_HPP_
#define FAIRCHAIN_SUPPORT_ENV_HPP_

#include <optional>
#include <string>

namespace fairchain {

/// Upper bound on worker threads (core::kMaxWorkers is this bound).
inline constexpr unsigned kMaxThreads = 4096;

/// Reads an environment variable; returns std::nullopt when unset or empty.
std::optional<std::string> GetEnv(const std::string& name);

/// Worker-thread count: FAIRCHAIN_THREADS when set, else hardware
/// concurrency.  Throws std::invalid_argument, naming the variable, when it
/// is set to anything but a whole number in [1, kMaxThreads].
unsigned EnvThreads();

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_ENV_HPP_
