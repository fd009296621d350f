// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component of fairchain draws randomness through RngStream,
// a thin wrapper over xoshiro256** (Blackman & Vigna).  Streams are seeded
// via SplitMix64, the recommended seeding procedure for the xoshiro family,
// and support O(1) stream splitting so that parallel Monte Carlo
// replications are statistically independent AND bitwise reproducible
// regardless of thread scheduling: replication r always uses
// `RngStream(seed).Split(r)`.
//
// The generators are implemented from scratch (public-domain algorithms);
// <random> engines are deliberately avoided because their distributions are
// not reproducible across standard-library implementations.

#ifndef FAIRCHAIN_SUPPORT_RNG_HPP_
#define FAIRCHAIN_SUPPORT_RNG_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

namespace fairchain {

/// SplitMix64: a tiny 64-bit generator used to expand seeds.
///
/// Passes BigCrush when used directly; here it only initialises the state of
/// stronger generators and derives per-replication sub-seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value and advances the state.
  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator (period 2^256 - 1).
///
/// All simulation randomness flows through this class.  Determinism contract:
/// the same seed always yields the same sequence, on every platform.
class RngStream {
 public:
  /// Seeds the stream by expanding `seed` through SplitMix64.
  explicit RngStream(std::uint64_t seed);

  /// Constructs from raw state (used internally by Split).
  explicit RngStream(const std::array<std::uint64_t, 4>& state);

  /// Returns the next raw 64-bit output.  Inline (with the two doubles
  /// below): one draw per simulated block is THE innermost operation of
  /// every Monte Carlo campaign, and the batched protocol loops rely on it
  /// scheduling into their inner loop instead of costing a call per draw.
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a uniform double in [0, 1) with 53 random bits.
  double NextDouble() {
    // 53 high bits -> uniform on [0, 1) with full double precision.
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform double in the open interval (0, 1); never 0, so it is
  /// safe as input to log() in inverse-transform sampling.
  double NextOpenDouble() {
    // (u + 0.5) / 2^53 lies in (0, 1) strictly.
    return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53;
  }

  /// Returns a uniform integer in [0, bound) without modulo bias.
  /// `bound` must be positive.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Returns a statistically independent child stream.
  ///
  /// Implemented as SplitMix64 over (state, index): child streams for
  /// distinct indices never collide in practice and are reproducible.
  RngStream Split(std::uint64_t index) const;

  /// Raw state accessor (serialisation / tests).
  const std::array<std::uint64_t, 4>& state() const { return state_; }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_RNG_HPP_
