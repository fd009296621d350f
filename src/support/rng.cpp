#include "support/rng.hpp"

#include <stdexcept>

namespace fairchain {

RngStream::RngStream(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.Next();
  // An all-zero state is the single fixed point of xoshiro; SplitMix64 cannot
  // produce four zero outputs in a row from any seed, but guard regardless.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

RngStream::RngStream(const std::array<std::uint64_t, 4>& state) : state_(state) {
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    throw std::invalid_argument("RngStream: all-zero state is invalid");
  }
}

std::uint64_t RngStream::NextBounded(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("NextBounded: bound must be > 0");
  // Rejection sampling over the largest multiple of `bound`.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

bool RngStream::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

RngStream RngStream::Split(std::uint64_t index) const {
  // Derive a child seed by hashing (state, index) through SplitMix64 chains.
  SplitMix64 mix(state_[0] ^ Rotl(state_[3], 13) ^
                 (index * 0xD1B54A32D192ED03ULL + 0x2545F4914F6CDD1DULL));
  std::uint64_t child_seed = mix.Next() ^ state_[1];
  SplitMix64 expander(child_seed + index);
  std::array<std::uint64_t, 4> child_state;
  for (auto& word : child_state) word = expander.Next();
  if (child_state[0] == 0 && child_state[1] == 0 && child_state[2] == 0 &&
      child_state[3] == 0) {
    child_state[0] = 0x9E3779B97F4A7C15ULL;
  }
  return RngStream(child_state);
}

}  // namespace fairchain
