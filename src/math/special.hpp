// Special functions implemented from scratch.
//
// The paper's analytical results need three non-elementary functions:
//
//  * the regularized incomplete beta function I_x(a, b) — the CDF of the
//    Beta(a/w, b/w) limit of the ML-PoS Pólya urn (Section 4.3);
//  * binomial tail probabilities — the exact Δ(ε; n, a) robust-fairness
//    probability for PoW (Section 4.2);
//  * the normal CDF — used for asymptotic cross-checks in tests.
//
// LogGamma uses the Lanczos approximation (g = 7, n = 9 coefficients,
// |relative error| < 1e-13 over the positive reals); the incomplete beta
// uses the Lentz continued-fraction evaluation.

#ifndef FAIRCHAIN_MATH_SPECIAL_HPP_
#define FAIRCHAIN_MATH_SPECIAL_HPP_

#include <cstdint>

namespace fairchain::math {

/// Natural log of the Gamma function for x > 0 (Lanczos approximation).
/// Throws std::invalid_argument for x <= 0.
double LogGamma(double x);

/// log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b); a, b > 0.
double LogBeta(double a, double b);

/// Regularized incomplete beta function I_x(a, b) for x in [0, 1], a, b > 0.
///
/// I_x(a, b) = B(x; a, b) / B(a, b) is the CDF at x of a Beta(a, b) random
/// variable.  Evaluated by the Lentz algorithm on the standard continued
/// fraction, using the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for convergence.
double RegularizedIncompleteBeta(double a, double b, double x);

/// CDF of Beta(a, b) at x (clamps x to [0, 1]).
double BetaCdf(double a, double b, double x);

/// Quantile (inverse CDF) of Beta(a, b) at probability p, by bisection.
double BetaQuantile(double a, double b, double p);

/// log of the binomial probability mass  C(n, k) p^k (1-p)^(n-k).
/// Requires 0 <= k <= n and p in [0, 1]; degenerate p handled exactly.
double BinomialLogPmf(std::uint64_t n, std::uint64_t k, double p);

/// Binomial pmf (exponentiated BinomialLogPmf).
double BinomialPmf(std::uint64_t n, std::uint64_t k, double p);

/// P[X <= k] for X ~ Bin(n, p), evaluated through the incomplete beta
/// identity  P[X <= k] = I_{1-p}(n - k, k + 1).
double BinomialCdf(std::uint64_t n, std::uint64_t k, double p);

/// The paper's Δ(ε; n, a) for PoW (Section 4.2):
///   Pr[(1-ε)a <= λ_A <= (1+ε)a] with n·λ_A ~ Bin(n, a),
/// computed exactly as F(⌊n(1+ε)a⌋) - F(⌈n(1-ε)a⌉ - 1).
double PowDeltaExact(std::uint64_t n, double a, double epsilon);

/// Standard normal CDF.
double NormalCdf(double z);

/// log(n choose k) via LogGamma.
double LogChoose(std::uint64_t n, std::uint64_t k);

/// Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0
/// (series for x < a + 1, continued fraction otherwise).
double RegularizedGammaP(double a, double x);

/// Chi-square CDF with k > 0 degrees of freedom: P(k/2, x/2).
double ChiSquareCdf(double k, double x);

/// log pmf of the Beta-Binomial(n, alpha, beta) distribution — the EXACT
/// finite-n law of the number of blocks miner A wins in an ML-PoS /
/// Pólya-urn game with initial composition (alpha w, beta w) and
/// reinforcement w (Section 4.3):
///   P[K = k] = C(n, k) B(k + alpha, n - k + beta) / B(alpha, beta).
double BetaBinomialLogPmf(std::uint64_t n, std::uint64_t k, double alpha,
                          double beta);

/// Beta-Binomial pmf (exponentiated log pmf).
double BetaBinomialPmf(std::uint64_t n, std::uint64_t k, double alpha,
                       double beta);

}  // namespace fairchain::math

#endif  // FAIRCHAIN_MATH_SPECIAL_HPP_
