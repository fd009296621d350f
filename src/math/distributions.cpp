#include "math/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/special.hpp"

namespace fairchain::math {

double SampleExponential(RngStream& rng, double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("SampleExponential: rate must be > 0");
  }
  return -std::log(rng.NextOpenDouble()) / rate;
}

std::uint64_t SampleGeometric(RngStream& rng, double p) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument("SampleGeometric: p must be in (0, 1]");
  }
  if (p >= 1.0) return 1;
  const double u = rng.NextOpenDouble();
  const double value = std::floor(std::log(u) / std::log1p(-p)) + 1.0;
  return value < 1.0 ? 1 : static_cast<std::uint64_t>(value);
}

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
// Only called while q^n stays far above the double underflow threshold.
std::uint64_t BinomialInversionFromZero(RngStream& rng, std::uint64_t n,
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

std::uint64_t SampleBinomial(RngStream& rng, std::uint64_t n, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("SampleBinomial: p outside [0, 1]");
  }
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Exploit symmetry so the walk is over the smaller tail.
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);
  // With p <= 1/2, q^n >= 2^-n: inversion from zero is safe for n <= 64
  // (every C-PoS slot count) and for any n with a small mean; larger
  // means walk from the mode, whose start point cannot underflow.
  const double mean = static_cast<double>(n) * p;
  if (n <= 64 || mean < 12.0) return BinomialInversionFromZero(rng, n, p);
  return BinomialInversionFromMode(rng, n, p);
}

std::size_t SampleCategorical(RngStream& rng,
                              const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("SampleCategorical: negative weight");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("SampleCategorical: weights sum to zero");
  }
  return SampleCategoricalWithTotal(rng, weights, total);
}

std::size_t SampleCategoricalWithTotal(RngStream& rng,
                                       const std::vector<double>& weights,
                                       double total) {
  const double target = rng.NextDouble() * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;
}

double SampleGamma(RngStream& rng, double shape) {
  if (!(shape > 0.0)) {
    throw std::invalid_argument("SampleGamma: shape must be > 0");
  }
  if (shape < 1.0) {
    // Boost to shape + 1 and scale back (Marsaglia-Tsang section 6).
    const double u = rng.NextOpenDouble();
    return SampleGamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = SampleNormal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.NextOpenDouble();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}

double SampleBeta(RngStream& rng, double a, double b) {
  const double x = SampleGamma(rng, a);
  const double y = SampleGamma(rng, b);
  return x / (x + y);
}

double SampleNormal(RngStream& rng) {
  const double u1 = rng.NextOpenDouble();
  const double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  if (weights.empty()) {
    throw std::invalid_argument("AliasTable: empty weights");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("AliasTable: weights sum to zero");
  }
  const std::size_t n = weights.size();
  probability_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (const std::uint32_t i : large) probability_[i] = 1.0;
  for (const std::uint32_t i : small) probability_[i] = 1.0;
}

std::size_t AliasTable::Sample(RngStream& rng) const {
  const std::size_t column = static_cast<std::size_t>(
      rng.NextBounded(static_cast<std::uint64_t>(probability_.size())));
  return rng.NextDouble() < probability_[column] ? column : alias_[column];
}

}  // namespace fairchain::math
