#include "math/ks_test.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/special.hpp"

namespace fairchain::math {

double KolmogorovSurvival(double x) {
  if (x <= 0.0) return 1.0;
  // Series converges extremely fast for x > 0.3; below that clamp to 1.
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term =
        std::exp(-2.0 * static_cast<double>(k) * k * x * x);
    sum += (k % 2 == 1 ? term : -term);
    if (term < 1e-16) break;
  }
  const double q = 2.0 * sum;
  return std::clamp(q, 0.0, 1.0);
}

namespace {

// std::sort requires a strict weak ordering; a NaN breaks it (operator< is
// not transitive-of-incomparability with NaN), which is undefined
// behaviour.  Reject non-finite observations up front with a defined error
// instead.
void RequireFinite(const std::vector<double>& sample, const char* what) {
  for (const double x : sample) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument(std::string(what) +
                                  ": sample contains a non-finite value");
    }
  }
}

}  // namespace

KsResult KsTestTwoSample(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("KsTestTwoSample: empty sample");
  }
  RequireFinite(a, "KsTestTwoSample");
  RequireFinite(b, "KsTestTwoSample");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    const double fa = static_cast<double>(i) / na;
    const double fb = static_cast<double>(j) / nb;
    d = std::max(d, std::fabs(fa - fb));
  }
  KsResult result;
  result.statistic = d;
  const double effective = std::sqrt(na * nb / (na + nb));
  const double scaled = (effective + 0.12 + 0.11 / effective) * d;
  result.p_value = KolmogorovSurvival(scaled);
  return result;
}

ChiSquareResult ChiSquareGofTest(const std::vector<std::uint64_t>& observed,
                                 const std::vector<double>& probabilities,
                                 double min_expected) {
  if (observed.empty() || observed.size() != probabilities.size()) {
    throw std::invalid_argument(
        "ChiSquareGofTest: observed/probabilities size mismatch");
  }
  double total_probability = 0.0;
  std::uint64_t total_count = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (probabilities[i] < 0.0) {
      throw std::invalid_argument("ChiSquareGofTest: negative probability");
    }
    total_probability += probabilities[i];
    total_count += observed[i];
  }
  if (!(total_probability > 0.0) || total_count == 0) {
    throw std::invalid_argument("ChiSquareGofTest: empty distribution");
  }
  // Merge adjacent cells until every expected count reaches the floor.
  std::vector<double> merged_expected;
  std::vector<double> merged_observed;
  double acc_expected = 0.0;
  double acc_observed = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    acc_expected += static_cast<double>(total_count) * probabilities[i] /
                    total_probability;
    acc_observed += static_cast<double>(observed[i]);
    if (acc_expected >= min_expected) {
      merged_expected.push_back(acc_expected);
      merged_observed.push_back(acc_observed);
      acc_expected = 0.0;
      acc_observed = 0.0;
    }
  }
  if (acc_expected > 0.0 || acc_observed > 0.0) {
    if (merged_expected.empty()) {
      merged_expected.push_back(acc_expected);
      merged_observed.push_back(acc_observed);
    } else {
      merged_expected.back() += acc_expected;
      merged_observed.back() += acc_observed;
    }
  }
  ChiSquareResult result;
  for (std::size_t i = 0; i < merged_expected.size(); ++i) {
    const double diff = merged_observed[i] - merged_expected[i];
    result.statistic += diff * diff / merged_expected[i];
  }
  result.degrees = merged_expected.size() > 1 ? merged_expected.size() - 1
                                              : 1;
  result.p_value = 1.0 - ChiSquareCdf(static_cast<double>(result.degrees),
                                      result.statistic);
  return result;
}

}  // namespace fairchain::math
