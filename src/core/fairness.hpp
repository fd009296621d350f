// The paper's two fairness notions (Definitions 3.1 and 4.1).
//
//   * Expectational fairness:  E[λ_A] = a — the expected reward fraction of
//     a miner equals her initial resource share.
//   * Robust ((ε, δ)-) fairness:  Pr[(1-ε) a <= λ_A <= (1+ε) a] >= 1 - δ —
//     the realised reward fraction concentrates around a.
//
// FairnessSpec carries (ε, δ) and the closed fair area [FairLow, FairHigh];
// core::ReduceToResult counts the λ samples outside it into the unfair
// probability every figure in the evaluation section is built from.

#ifndef FAIRCHAIN_CORE_FAIRNESS_HPP_
#define FAIRCHAIN_CORE_FAIRNESS_HPP_

#include <cstddef>
#include <string>
#include <vector>

namespace fairchain::core {

/// Robust-fairness parameters (ε, δ).  The paper's default is ε = 0.1,
/// δ = 0.1: with probability >= 90 %, the return on investment lies within
/// ±10 % of proportional.
struct FairnessSpec {
  double epsilon = 0.1;
  double delta = 0.1;

  /// Validates a finite ε >= 0 and 0 <= δ <= 1 (NaN fails both); throws
  /// std::invalid_argument.
  void Validate() const;

  /// Lower edge of the fair area for initial share `a`: (1 - ε) a.
  double FairLow(double a) const { return (1.0 - epsilon) * a; }

  /// Upper edge of the fair area for initial share `a`: (1 + ε) a.
  double FairHigh(double a) const { return (1.0 + epsilon) * a; }
};

/// Empirical check of expectational fairness: given per-replication reward
/// fractions, is the sample mean within `z` standard errors of `a`?
struct ExpectationalFairnessReport {
  double target;         ///< a, the initial share
  double sample_mean;    ///< empirical E[λ]
  double std_error;      ///< standard error of the mean
  double z_score;        ///< (mean - a) / std_error (0 when SE == 0)
  bool consistent;       ///< |z| <= z_threshold
};

/// Builds an ExpectationalFairnessReport from sampled reward fractions.
ExpectationalFairnessReport CheckExpectationalFairness(
    const std::vector<double>& lambdas, double a, double z_threshold = 4.0);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_FAIRNESS_HPP_
