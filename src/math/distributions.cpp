#include "math/distributions.hpp"

#include <cmath>
#include <stdexcept>

#include "math/special.hpp"

namespace fairchain::math {

namespace {

// base^exponent by repeated squaring: O(log n) multiplies, no libm call.
double PowBySquaring(double base, std::uint64_t exponent) {
  double result = 1.0;
  while (exponent != 0) {
    if ((exponent & 1) != 0) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

// CDF inversion starting from k = 0: one uniform, O(np) expected steps.
// The n > 64 twin of detail::BinomialInversionFromZero, only called while
// q^n stays far above the double underflow threshold.
std::uint64_t LargeBinomialInversionFromZero(RngStream& rng, std::uint64_t n,
                                             double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  double pmf = PowBySquaring(q, n);
  double cdf = pmf;
  const double u = rng.NextDouble();
  std::uint64_t k = 0;
  while (u > cdf && k < n) {
    ++k;
    pmf *= s * (static_cast<double>(n - k + 1) / static_cast<double>(k));
    cdf += pmf;
  }
  return k;
}

// CDF inversion walking outward from the mode; O(sd) expected steps.
std::uint64_t BinomialInversionFromMode(RngStream& rng, std::uint64_t n,
                                        double p) {
  const std::uint64_t mode = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(n + 1) * p));
  const double pmf_mode = BinomialPmf(n, mode, p);
  double u = rng.NextDouble() - BinomialCdf(n, mode, p);
  if (u <= 0.0) {
    // Walk downward from the mode.
    std::uint64_t k = mode;
    double pmf = pmf_mode;
    while (k > 0) {
      u += pmf;
      if (u > 0.0) return k;
      // pmf(k-1) = pmf(k) * k * (1-p) / ((n-k+1) * p)
      pmf *= (static_cast<double>(k) * (1.0 - p)) /
             (static_cast<double>(n - k + 1) * p);
      --k;
    }
    return 0;
  }
  // Walk upward from the mode.
  std::uint64_t k = mode;
  double pmf = pmf_mode;
  while (k < n) {
    // pmf(k+1) = pmf(k) * (n-k) p / ((k+1)(1-p))
    pmf *= (static_cast<double>(n - k) * p) /
           (static_cast<double>(k + 1) * (1.0 - p));
    ++k;
    u -= pmf;
    if (u <= 0.0) return k;
  }
  return n;
}

}  // namespace

namespace detail {

void ThrowBinomialProbability() {
  throw std::invalid_argument("SampleBinomial: p outside [0, 1]");
}

std::uint64_t SampleLargeBinomial(RngStream& rng, std::uint64_t n, double p) {
  // Exploit symmetry so the walk is over the smaller tail.
  if (p > 0.5) return n - SampleLargeBinomial(rng, n, 1.0 - p);
  // With p <= 1/2, q^n >= 2^-n: inversion from zero is safe for any n
  // with a small mean; larger means walk from the mode, whose start point
  // cannot underflow.
  const double mean = static_cast<double>(n) * p;
  if (mean < 12.0) return LargeBinomialInversionFromZero(rng, n, p);
  return BinomialInversionFromMode(rng, n, p);
}

}  // namespace detail

}  // namespace fairchain::math
