#include "support/env.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace fairchain {

std::optional<std::string> GetEnv(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

unsigned EnvThreads() {
  if (const auto raw = GetEnv("FAIRCHAIN_THREADS")) {
    std::uint64_t threads = 0;
    const char* end = raw->data() + raw->size();
    const auto [ptr, error] = std::from_chars(raw->data(), end, threads);
    if (error != std::errc() || ptr != end || threads == 0 ||
        threads > kMaxThreads) {
      throw std::invalid_argument(
          "FAIRCHAIN_THREADS must be a whole number in [1, " +
          std::to_string(kMaxThreads) + "], got '" + *raw + "'");
    }
    return static_cast<unsigned>(threads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace fairchain
