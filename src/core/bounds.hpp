// Analytical robust-fairness bounds (Theorems 4.2, 4.3, 4.10) and the exact
// ML-PoS Pólya-urn limit (Section 4.3).
//
// Conventions: `a` is miner A's initial resource share in (0, 1); `w` and
// `v` are per-step rewards normalised against the initial total stake; `n`
// is the number of blocks (PoW / ML-PoS) or epochs (C-PoS).  Every `w` must
// be finite and > 0 and every `v` finite and >= 0 — the models' own
// predicates, protocol::ValidateReward / ValidateInflation — or the bound
// throws std::invalid_argument naming the parameter.

#ifndef FAIRCHAIN_CORE_BOUNDS_HPP_
#define FAIRCHAIN_CORE_BOUNDS_HPP_

#include <cstdint>

#include "core/fairness.hpp"

namespace fairchain::core {

// ---------------------------------------------------------------------------
// PoW (Theorem 4.2, Hoeffding)
// ---------------------------------------------------------------------------

/// Hoeffding tail bound on PoW unfairness:
///   Pr[λ outside fair area] <= 2 exp(-2 n a² ε²).
double PowUnfairUpperBound(std::uint64_t n, double a, double epsilon);

/// The sufficient horizon of Theorem 4.2:  n >= ln(2/δ) / (2 a² ε²).
double PowSufficientBlocks(double a, const FairnessSpec& spec);

/// Exact PoW robust-fairness probability Δ(ε; n, a) via the binomial CDF
/// (Section 4.2) — tighter than Hoeffding; tests verify
/// Δ >= 1 - PowUnfairUpperBound.
double PowExactFairProbability(std::uint64_t n, double a, double epsilon);

// ---------------------------------------------------------------------------
// ML-PoS (Theorem 4.3, Azuma; and the exact Beta limit)
// ---------------------------------------------------------------------------

/// Azuma bound for ML-PoS:  Pr[unfair] <= 2 exp(-2 n a² ε² / (1 + n w)).
/// As n -> infinity this tends to 2 exp(-2 a² ε² / w): a *positive* limit —
/// the mathematical reason ML-PoS cannot buy robust fairness with time.
double MlPosUnfairUpperBound(std::uint64_t n, double w, double a,
                             double epsilon);

/// Theorem 4.3 sufficient condition:  1/n + w <= 2 a² ε² / ln(2/δ).
bool MlPosSatisfiesBound(std::uint64_t n, double w, double a,
                         const FairnessSpec& spec);

/// The largest block reward w for which ML-PoS can ever (n -> infinity)
/// satisfy Theorem 4.3:  w_max = 2 a² ε² / ln(2/δ).
double MlPosMaxRewardForFairness(double a, const FairnessSpec& spec);

/// Parameters of a Beta distribution.
struct BetaParams {
  double alpha;
  double beta;
};

/// The almost-sure limit of the ML-PoS reward fraction (Section 4.3):
/// λ_A -> Beta(a/w, (1-a)/w) for initial shares (a, 1-a) and reward w.
BetaParams MlPosLimitDistribution(double a, double w);

/// Exact limiting unfair probability for ML-PoS via the regularized
/// incomplete beta:  1 - [I_{(1+ε)a} - I_{(1-ε)a}](a/w, (1-a)/w).
double MlPosLimitUnfairProbability(double a, double w, double epsilon);

// ---------------------------------------------------------------------------
// C-PoS (Theorem 4.10)
// ---------------------------------------------------------------------------

/// Left-hand side of the Theorem 4.10 condition:
///   w² (1/n + w + v) / ((w + v)² P).
double CPosConditionLhs(std::uint64_t n, double w, double v, std::uint32_t P);

/// Azuma bound for C-PoS:
///   Pr[unfair] <= 2 exp(-2 n a² ε² (w+v)² P / (w² (1 + (w+v) n))).
double CPosUnfairUpperBound(std::uint64_t n, double w, double v,
                            std::uint32_t P, double a, double epsilon);

/// Theorem 4.10 sufficient condition:
///   w²(1/n + w + v) / ((w+v)² P) <= 2 a² ε² / ln(2/δ).
bool CPosSatisfiesBound(std::uint64_t n, double w, double v, std::uint32_t P,
                        double a, const FairnessSpec& spec);

/// The smallest inflation reward v such that C-PoS satisfies Theorem 4.10
/// as n -> infinity, for fixed (w, P, a, spec); returns +infinity when even
/// v -> infinity cannot satisfy it (never happens for valid inputs), and 0
/// when v = 0 already suffices.  Solved by bisection.
double CPosMinInflationForFairness(double w, std::uint32_t P, double a,
                                   const FairnessSpec& spec);

/// Common right-hand side of Theorems 4.3 / 4.10:  2 a² ε² / ln(2/δ).
double AzumaConditionRhs(double a, const FairnessSpec& spec);

}  // namespace fairchain::core

#endif  // FAIRCHAIN_CORE_BOUNDS_HPP_
