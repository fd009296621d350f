// Random-variate samplers built on RngStream.
//
// Each protocol model needs a specific sampler:
//   * Exponential  — PoW / FSL-PoS inter-block race (Section 2.1, 6.2);
//   * Geometric    — ML-PoS per-timestamp lottery (Section 2.2);
//   * Binomial     — C-PoS proposer counts per epoch, X ~ Bin(P, share),
//                    drawn as a conditional-binomial chain over miners;
//   * Categorical  — proposer selection with stake-proportional weights;
//   * Beta / Gamma — cross-checking the Pólya-urn limit in tests.
//
// All samplers are inverse-transform or rejection algorithms implemented
// from scratch so runs are bit-reproducible across platforms.

#ifndef FAIRCHAIN_MATH_DISTRIBUTIONS_HPP_
#define FAIRCHAIN_MATH_DISTRIBUTIONS_HPP_

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace fairchain::math {

/// Exponential(rate) via inverse transform.  rate > 0.
double SampleExponential(RngStream& rng, double rate);

/// Geometric on {1, 2, ...}: number of Bernoulli(p) trials until the first
/// success, sampled in O(1) via the inverse transform.  p in (0, 1].
std::uint64_t SampleGeometric(RngStream& rng, double p);

/// Binomial(n, p).
///
/// Walks the smaller tail (p <= 1/2 by symmetry).  For n <= 64 or a mean
/// below 12 it is CDF inversion from zero with one uniform, starting from
/// q^n by repeated squaring; otherwise inversion from the mode, so the
/// expected cost is O(sd) rather than O(n).  The C-PoS epoch draws its
/// conditional-binomial slot chain through it, one uniform per miner.
std::uint64_t SampleBinomial(RngStream& rng, std::uint64_t n, double p);

/// Categorical draw: returns index i with probability weights[i] / sum.
/// Weights must be non-negative with a positive sum.
std::size_t SampleCategorical(RngStream& rng,
                              const std::vector<double>& weights);

/// Categorical draw given a precomputed positive total (hot-path variant
/// that skips the summation pass).
std::size_t SampleCategoricalWithTotal(RngStream& rng,
                                       const std::vector<double>& weights,
                                       double total);

/// Gamma(shape, 1) via Marsaglia & Tsang's squeeze method (shape > 0).
double SampleGamma(RngStream& rng, double shape);

/// Beta(a, b) via the two-Gamma construction.
double SampleBeta(RngStream& rng, double a, double b);

/// Standard normal via Box-Muller (polar form not needed; trig is fine).
double SampleNormal(RngStream& rng);

/// Alias-method table for O(1) categorical sampling with *static* weights
/// (PoW hash power, NEO base asset).  Construction is O(n).
class AliasTable {
 public:
  /// Builds the table; throws std::invalid_argument when weights are empty,
  /// negative, or sum to zero.
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws an index in O(1).
  std::size_t Sample(RngStream& rng) const;

  /// Number of categories.
  std::size_t size() const { return probability_.size(); }

 private:
  std::vector<double> probability_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace fairchain::math

#endif  // FAIRCHAIN_MATH_DISTRIBUTIONS_HPP_
