// Stochastic-approximation analysis of SL-PoS (Section 4.4, Theorem 4.9).
//
// The SL-PoS stake share Z_n of miner A evolves as
//   Z_{n+1} - Z_n = γ_{n+1} ( f(Z_n) + U_{n+1} ),   γ_{n+1} = w / (1+(n+1)w),
// with drift (Equation (2)):
//   f(z) = z / (2 (1 - z)) - z          for z <= 1/2,
//        = 1 - (1 - z) / (2 z) - z      otherwise.
// The zero set is {0, 1/2, 1}: the paper shows 1/2 is unstable and 0 / 1 are
// stable, so Z_n -> {0, 1} almost surely — the Matthew effect.
//
// This module exposes the drift and a generic zero finder with numeric
// stability classification.  The share process itself is SlPosModel
// stepped through RunSteps; its tests check Theorem 4.9 and Lemma 4.8 on
// that process.

#ifndef FAIRCHAIN_CORE_STOCHASTIC_APPROXIMATION_HPP_
#define FAIRCHAIN_CORE_STOCHASTIC_APPROXIMATION_HPP_

#include <cstddef>
#include <functional>
#include <vector>

namespace fairchain::core {

/// Two-miner SL-PoS drift f(z) of Equation (2): the Equation (1) win
/// probability protocol::SlPosTwoMinerWinProbability(z, 1 - z) minus z.
/// Throws std::invalid_argument outside [0, 1].
double SlPosDriftTwoMiner(double z);

/// A zero of a drift function with its stability classification.
struct DriftZero {
  double location;  ///< z with f(z) = 0
  bool stable;      ///< true when f(x)(x - z) < 0 on both sides near z
};

/// Finds the zeros of `f` on [0, 1] by sign-change scanning on a uniform
/// grid followed by bisection, plus explicit endpoint checks.  Stability is
/// classified by the sign of f just inside each neighbourhood.
std::vector<DriftZero> FindDriftZeros(const std::function<double(double)>& f,
                                      std::size_t grid = 4096,
                                      double tolerance = 1e-12);

/// The SL-PoS two-miner zero set {0, 1/2, 1} with stability flags —
/// computed numerically from the drift (not hard-coded), so tests can
/// verify Theorem 4.9's classification end to end.
std::vector<DriftZero> SlPosTwoMinerZeros();

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_STOCHASTIC_APPROXIMATION_HPP_
