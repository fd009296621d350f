// The binomial sampler built on RngStream: C-PoS proposer counts per
// epoch, X ~ Bin(P, share), drawn as a conditional-binomial chain over
// miners.  (Proportional draws over miners go through
// support/FenwickSampler.)
//
// It is CDF inversion implemented from scratch, so runs are
// bit-reproducible across platforms.

#ifndef FAIRCHAIN_MATH_DISTRIBUTIONS_HPP_
#define FAIRCHAIN_MATH_DISTRIBUTIONS_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace fairchain::math {

namespace detail {

/// Largest n whose Binomial(n, p) draw is inlined: every C-PoS slot count
/// at P <= 64.  Seven squaring steps reach q^n for any such n.
inline constexpr std::uint64_t kInlineBinomialMaxN = 64;

/// The ratios pmf(k) / pmf(k - 1) * q / p = (n - k + 1) / k of the
/// inversion walk, for 1 <= k <= n <= kInlineBinomialMaxN, row n starting
/// at n (n - 1) / 2.  Each entry is the correctly rounded quotient, so it
/// has the bits of the run-time division it replaces (a table of
/// reciprocals 1 / k would not).
inline constexpr auto kBinomialRatios = [] {
  std::array<double, kInlineBinomialMaxN * (kInlineBinomialMaxN + 1) / 2>
      ratios{};
  std::size_t at = 0;
  for (std::uint64_t n = 1; n <= kInlineBinomialMaxN; ++n) {
    for (std::uint64_t k = 1; k <= n; ++k) {
      ratios[at++] = static_cast<double>(n - k + 1) / static_cast<double>(k);
    }
  }
  return ratios;
}();

/// CDF inversion from k = 0 for Binomial(n, p), 1 <= n <=
/// kInlineBinomialMaxN, 0 < p < 1: the smallest k whose running CDF
/// reaches `u` (n when none does).  The start value q^n takes seven fixed
/// squaring steps, multiplying by q^(2^j) where bit j of n is set: the
/// products of repeated squaring, in its order, so the same bits, but
/// with a trip count that does not depend on n.
inline std::uint64_t BinomialInversionFromZero(double u, std::uint64_t n,
                                               double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  double pmf = 1.0;
  double square = q;
  for (int j = 0; j < 7; ++j) {
    if (((n >> j) & 1) != 0) pmf *= square;
    square *= square;
  }
  double cdf = pmf;
  const double* row = kBinomialRatios.data() + n * (n - 1) / 2;
  std::uint64_t k = 0;
  while (u > cdf && k < n) {
    pmf *= s * row[k];  // (n - k) / (k + 1): the step to pmf(k + 1)
    ++k;
    cdf += pmf;
  }
  return k;
}

/// SampleBinomial for n > kInlineBinomialMaxN, out of line.
std::uint64_t SampleLargeBinomial(RngStream& rng, std::uint64_t n, double p);

[[noreturn]] void ThrowBinomialProbability();

}  // namespace detail

/// Binomial(n, p); throws std::invalid_argument unless 0 <= p <= 1.
///
/// Walks the smaller tail (p <= 1/2 by symmetry).  For n <= 64 it is CDF
/// inversion from zero with one uniform, inline (the C-PoS epoch draws
/// its conditional-binomial slot chain through it, one uniform per miner):
/// the start value q^n comes from fixed-length repeated squaring, the
/// ratios (n - k + 1) / k from an exact quotient table, and the p > 1/2
/// tail is mirrored in place instead of by recursion.  Larger n walk out
/// of line, from zero while the mean is below 12 and from the mode
/// otherwise, so the expected cost is O(sd) rather than O(n).  Every path
/// returns, uniform for uniform, what a plain division-and-recursion walk
/// returns.
inline std::uint64_t SampleBinomial(RngStream& rng, std::uint64_t n,
                                    double p) {
  if (!(p >= 0.0 && p <= 1.0)) detail::ThrowBinomialProbability();
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (n > detail::kInlineBinomialMaxN) {
    return detail::SampleLargeBinomial(rng, n, p);
  }
  const bool upper = p > 0.5;
  const std::uint64_t k = detail::BinomialInversionFromZero(
      rng.NextDouble(), n, upper ? 1.0 - p : p);
  return upper ? n - k : k;
}

}  // namespace fairchain::math

#endif  // FAIRCHAIN_MATH_DISTRIBUTIONS_HPP_
