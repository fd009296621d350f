#include "core/bounds.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/special.hpp"
#include "protocol/incentive_model.hpp"

namespace fairchain::core {

namespace {

void ValidateShare(double a, const char* fn) {
  if (!(a > 0.0) || !(a < 1.0)) {
    throw std::invalid_argument(std::string(fn) + ": a must be in (0, 1)");
  }
}

void ValidateEpsilon(double epsilon, const char* fn) {
  if (epsilon < 0.0) {
    throw std::invalid_argument(std::string(fn) + ": epsilon must be >= 0");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PoW
// ---------------------------------------------------------------------------

double PowUnfairUpperBound(std::uint64_t n, double a, double epsilon) {
  ValidateShare(a, "PowUnfairUpperBound");
  ValidateEpsilon(epsilon, "PowUnfairUpperBound");
  const double nd = static_cast<double>(n);
  const double bound = 2.0 * std::exp(-2.0 * nd * a * a * epsilon * epsilon);
  return bound > 1.0 ? 1.0 : bound;
}

double PowSufficientBlocks(double a, const FairnessSpec& spec) {
  ValidateShare(a, "PowSufficientBlocks");
  spec.Validate();
  if (spec.epsilon == 0.0 || spec.delta == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::log(2.0 / spec.delta) /
         (2.0 * a * a * spec.epsilon * spec.epsilon);
}

double PowExactFairProbability(std::uint64_t n, double a, double epsilon) {
  return math::PowDeltaExact(n, a, epsilon);
}

// ---------------------------------------------------------------------------
// ML-PoS
// ---------------------------------------------------------------------------

double MlPosUnfairUpperBound(std::uint64_t n, double w, double a,
                             double epsilon) {
  ValidateShare(a, "MlPosUnfairUpperBound");
  ValidateEpsilon(epsilon, "MlPosUnfairUpperBound");
  protocol::ValidateReward(w, "MlPosUnfairUpperBound: w");
  const double nd = static_cast<double>(n);
  // From the proof of Theorem 4.3 with gamma = n w a eps:
  //   Pr <= 2 exp(-2 gamma^2 / (w^2 (1 + n w) n)) = 2 exp(-2 n a^2 e^2/(1+nw))
  const double bound =
      2.0 * std::exp(-2.0 * nd * a * a * epsilon * epsilon / (1.0 + nd * w));
  return bound > 1.0 ? 1.0 : bound;
}

double AzumaConditionRhs(double a, const FairnessSpec& spec) {
  ValidateShare(a, "AzumaConditionRhs");
  spec.Validate();
  if (spec.delta == 0.0) return 0.0;
  return 2.0 * a * a * spec.epsilon * spec.epsilon /
         std::log(2.0 / spec.delta);
}

bool MlPosSatisfiesBound(std::uint64_t n, double w, double a,
                         const FairnessSpec& spec) {
  if (n == 0) throw std::invalid_argument("MlPosSatisfiesBound: n must be >0");
  protocol::ValidateReward(w, "MlPosSatisfiesBound: w");
  return 1.0 / static_cast<double>(n) + w <= AzumaConditionRhs(a, spec);
}

double MlPosMaxRewardForFairness(double a, const FairnessSpec& spec) {
  return AzumaConditionRhs(a, spec);
}

BetaParams MlPosLimitDistribution(double a, double w) {
  ValidateShare(a, "MlPosLimitDistribution");
  protocol::ValidateReward(w, "MlPosLimitDistribution: w");
  return BetaParams{a / w, (1.0 - a) / w};
}

double MlPosLimitUnfairProbability(double a, double w, double epsilon) {
  const BetaParams params = MlPosLimitDistribution(a, w);
  ValidateEpsilon(epsilon, "MlPosLimitUnfairProbability");
  const double hi = math::BetaCdf(params.alpha, params.beta,
                                  (1.0 + epsilon) * a);
  const double lo = math::BetaCdf(params.alpha, params.beta,
                                  (1.0 - epsilon) * a);
  return 1.0 - (hi - lo);
}

// ---------------------------------------------------------------------------
// C-PoS
// ---------------------------------------------------------------------------

double CPosConditionLhs(std::uint64_t n, double w, double v, std::uint32_t P) {
  if (n == 0) throw std::invalid_argument("CPosConditionLhs: n must be > 0");
  protocol::ValidateReward(w, "CPosConditionLhs: w");
  protocol::ValidateInflation(v, "CPosConditionLhs: v");
  if (P == 0) throw std::invalid_argument("CPosConditionLhs: P must be >= 1");
  const double nd = static_cast<double>(n);
  const double total = w + v;
  return w * w * (1.0 / nd + total) /
         (total * total * static_cast<double>(P));
}

double CPosUnfairUpperBound(std::uint64_t n, double w, double v,
                            std::uint32_t P, double a, double epsilon) {
  ValidateShare(a, "CPosUnfairUpperBound");
  ValidateEpsilon(epsilon, "CPosUnfairUpperBound");
  const double lhs = CPosConditionLhs(n, w, v, P);
  // Pr <= 2 exp(-2 a^2 eps^2 / lhs)  (rearranged Theorem 4.10 tail).
  const double bound = 2.0 * std::exp(-2.0 * a * a * epsilon * epsilon / lhs);
  return bound > 1.0 ? 1.0 : bound;
}

bool CPosSatisfiesBound(std::uint64_t n, double w, double v, std::uint32_t P,
                        double a, const FairnessSpec& spec) {
  return CPosConditionLhs(n, w, v, P) <= AzumaConditionRhs(a, spec);
}

double CPosMinInflationForFairness(double w, std::uint32_t P, double a,
                                   const FairnessSpec& spec) {
  ValidateShare(a, "CPosMinInflationForFairness");
  protocol::ValidateReward(w, "CPosMinInflationForFairness: w");
  spec.Validate();
  const double rhs = AzumaConditionRhs(a, spec);
  if (rhs <= 0.0) return std::numeric_limits<double>::infinity();
  // Asymptotic (n -> infinity) LHS:  w^2 (w + v) / ((w + v)^2 P)
  //                                = w^2 / ((w + v) P).
  auto lhs_infinite = [w, P](double v) {
    return w * w / ((w + v) * static_cast<double>(P));
  };
  if (lhs_infinite(0.0) <= rhs) return 0.0;
  // lhs is strictly decreasing in v; solve lhs(v) = rhs in closed form:
  //   w^2 / ((w + v) P) = rhs  =>  v = w^2 / (rhs P) - w.
  return w * w / (rhs * static_cast<double>(P)) - w;
}

}  // namespace fairchain::core
