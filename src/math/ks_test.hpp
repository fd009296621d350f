// Goodness-of-fit tests.
//
// ChiSquareGofTest is how `fairchain verify` judges a discrete law: the
// exact Binomial / Beta-Binomial block counts of PoW and ML-PoS
// (Section 4.3).  The two-sample Kolmogorov-Smirnov test compares two
// simulated samples; the integration tests use it for the protocol-pair
// equivalences (FSL-PoS vs ML-PoS, C-PoS(v=0, P=1) vs ML-PoS).  No binary
// calls it, but it stays here, beside the chi-square test, so the
// statistics live in one module.

#ifndef FAIRCHAIN_MATH_KS_TEST_HPP_
#define FAIRCHAIN_MATH_KS_TEST_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairchain::math {

/// Result of a Kolmogorov-Smirnov test.
struct KsResult {
  double statistic = 0.0;  ///< sup-norm distance D
  double p_value = 0.0;    ///< asymptotic Kolmogorov p-value
};

/// Two-sample KS test.  Ties within and across the samples are handled
/// exactly (both ECDFs advance past the tied value before comparing).
/// Throws std::invalid_argument on an empty or non-finite sample.
KsResult KsTestTwoSample(std::vector<double> a, std::vector<double> b);

/// The asymptotic Kolmogorov survival function Q(x) = 2 Σ (-1)^{k-1}
/// exp(-2 k² x²); Q(effective_n-scaled D) is the p-value.
double KolmogorovSurvival(double x);

/// Result of a chi-square goodness-of-fit test.
struct ChiSquareResult {
  double statistic = 0.0;        ///< Σ (O - E)² / E over merged cells
  std::size_t degrees = 0;       ///< cells after merging, minus 1
  double p_value = 0.0;          ///< 1 - ChiSquareCdf(degrees, statistic)
};

/// Pearson chi-square GOF test of observed counts against cell
/// probabilities (which are normalised internally).  Cells with expected
/// count below `min_expected` are pooled into their neighbour so the
/// asymptotic chi-square approximation is valid.  Suited to *discrete*
/// laws where KS is conservative — e.g. validating that ML-PoS block
/// counts follow the exact Beta-Binomial(n, a/w, b/w) distribution.
ChiSquareResult ChiSquareGofTest(const std::vector<std::uint64_t>& observed,
                                 const std::vector<double>& probabilities,
                                 double min_expected = 5.0);

}  // namespace fairchain::math

#endif  // FAIRCHAIN_MATH_KS_TEST_HPP_
