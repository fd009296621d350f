#include "core/fairness.hpp"

#include <cmath>
#include <stdexcept>

#include "support/stats.hpp"

namespace fairchain::core {

void FairnessSpec::Validate() const {
  // Written as negated acceptance tests so NaN fails both.
  if (!(epsilon >= 0.0) || !std::isfinite(epsilon)) {
    throw std::invalid_argument(
        "FairnessSpec: epsilon must be finite and >= 0");
  }
  if (!(delta >= 0.0 && delta <= 1.0)) {
    throw std::invalid_argument("FairnessSpec: delta must be in [0, 1]");
  }
}

ExpectationalFairnessReport CheckExpectationalFairness(
    const std::vector<double>& lambdas, double a, double z_threshold) {
  if (lambdas.empty()) {
    throw std::invalid_argument("CheckExpectationalFairness: empty sample");
  }
  RunningStats stats;
  for (const double lambda : lambdas) stats.Add(lambda);
  ExpectationalFairnessReport report;
  report.target = a;
  report.sample_mean = stats.Mean();
  report.std_error = stats.StdError();
  report.z_score = report.std_error > 0.0
                       ? (report.sample_mean - a) / report.std_error
                       : 0.0;
  report.consistent = std::fabs(report.z_score) <= z_threshold;
  return report;
}

}  // namespace fairchain::core
