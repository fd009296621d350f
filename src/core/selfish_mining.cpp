#include "core/selfish_mining.hpp"

#include <stdexcept>

namespace fairchain::core {

double SelfishMiningRevenue(double alpha, double gamma) {
  // Negated comparisons so NaN fails validation instead of slipping
  // through (NaN > 0.0 and NaN > 0.5 are both false).
  if (!(alpha > 0.0) || !(alpha <= 0.5)) {
    throw std::invalid_argument(
        "SelfishMiningRevenue: alpha must be in (0, 0.5] — the closed form "
        "diverges for a majority pool (revenue -> 1); simulate alpha > 0.5 "
        "with the selfish chain kernel");
  }
  if (!(gamma >= 0.0) || !(gamma <= 1.0)) {
    throw std::invalid_argument(
        "SelfishMiningRevenue: gamma must be in [0, 1]");
  }
  const double numerator =
      alpha * (1.0 - alpha) * (1.0 - alpha) *
          (4.0 * alpha + gamma * (1.0 - 2.0 * alpha)) -
      alpha * alpha * alpha;
  const double denominator =
      1.0 - alpha * (1.0 + (2.0 - alpha) * alpha);
  return numerator / denominator;
}

double SelfishMiningThreshold(double gamma) {
  if (!(gamma >= 0.0) || !(gamma <= 1.0)) {
    throw std::invalid_argument(
        "SelfishMiningThreshold: gamma must be in [0, 1]");
  }
  return (1.0 - gamma) / (3.0 - 2.0 * gamma);
}

}  // namespace fairchain::core
