#include "protocol/win_probability.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/integrate.hpp"

namespace fairchain::protocol {

double SlPosTwoMinerWinProbability(double s_a, double s_b) {
  if (s_a < 0.0 || s_b < 0.0 || (s_a == 0.0 && s_b == 0.0)) {
    throw std::invalid_argument(
        "SlPosTwoMinerWinProbability: stakes must be non-negative with a "
        "positive total");
  }
  // A zero-stake miner draws an infinite deadline and never wins.
  if (s_a == 0.0) return 0.0;
  if (s_b == 0.0) return 1.0;
  if (s_a <= s_b) return s_a / (2.0 * s_b);
  return 1.0 - s_b / (2.0 * s_a);
}

double SlPosMultiMinerWinProbability(const std::vector<double>& stakes,
                                     std::size_t i) {
  if (i >= stakes.size()) {
    throw std::invalid_argument("SlPosMultiMinerWinProbability: index range");
  }
  if (stakes.size() == 1) return 1.0;
  double s_max = 0.0;
  for (const double s : stakes) {
    if (s < 0.0) {
      throw std::invalid_argument(
          "SlPosMultiMinerWinProbability: negative stake");
    }
    s_max = std::max(s_max, s);
  }
  if (!(s_max > 0.0)) {
    throw std::invalid_argument(
        "SlPosMultiMinerWinProbability: all stakes are zero");
  }
  // A zero-stake miner draws an infinite deadline: it never wins and never
  // constrains the others (its survival factor is identically 1).
  if (stakes[i] == 0.0) return 0.0;
  const double upper = 1.0 / s_max;
  const double s_i = stakes[i];
  auto integrand = [&stakes, i](double z) {
    double product = 1.0;
    for (std::size_t j = 0; j < stakes.size(); ++j) {
      if (j == i) continue;
      product *= std::max(0.0, 1.0 - stakes[j] * z);
    }
    return product;
  };
  // The integrand is a polynomial of degree m - 1 (m = #miners), so order-32
  // Gauss-Legendre is exact for m <= 64; fall back to adaptive Simpson above.
  double integral;
  if (stakes.size() <= 64) {
    integral = math::GaussLegendre(integrand, 0.0, upper, 32);
  } else {
    integral = math::AdaptiveSimpson(integrand, 0.0, upper, 1e-13);
  }
  return s_i * integral;
}

std::vector<double> SlPosWinProbabilities(const std::vector<double>& stakes) {
  std::vector<double> probabilities(stakes.size());
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    probabilities[i] = SlPosMultiMinerWinProbability(stakes, i);
  }
  return probabilities;
}

}  // namespace fairchain::protocol
