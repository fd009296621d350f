#include "verify/oracle.hpp"

#include <cmath>
#include <stdexcept>

#include "core/bounds.hpp"
#include "core/selfish_mining.hpp"
#include "math/special.hpp"

namespace fairchain::verify {

namespace {

// Absolute slack (on the λ scale) within which a lattice point k/n is
// considered to sit ON a fair-area edge.  The engine accumulates incomes in
// floating point, so a replication's λ differs from the exact k/n by
// ~1e-13; a lattice point this close to an edge can be counted on either
// side by the engine, and the oracle must not claim it for one side.
constexpr double kBoundaryTolerance = 1e-9;

// Exact unfair probability of the discrete law `pmf` over k/n under the
// engine's own counting rule (λ < fair_low || λ > fair_high, evaluated in
// double), with FP-ambiguous edge points reported separately.
void ExactUnfairFromPmf(const std::vector<double>& pmf, std::uint64_t n,
                        double a, const core::FairnessSpec& fairness,
                        OraclePrediction& prediction) {
  const double fair_low = fairness.FairLow(a);
  const double fair_high = fairness.FairHigh(a);
  double outside = 0.0;
  double boundary = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    const double lambda =
        static_cast<double>(k) / static_cast<double>(n);
    if (std::fabs(lambda - fair_low) <= kBoundaryTolerance ||
        std::fabs(lambda - fair_high) <= kBoundaryTolerance) {
      boundary += pmf[k];
    } else if (lambda < fair_low || lambda > fair_high) {
      outside += pmf[k];
    }
  }
  prediction.unfair_probability = outside;
  prediction.unfair_boundary_mass = boundary;
}

}  // namespace

std::size_t OraclePrediction::StochasticComparisons() const {
  // Deterministic claims are checked by exact tolerance, never by a
  // hypothesis test, so they cannot contribute false alarms.
  if (deterministic_lambda) return 0;
  std::size_t count = 0;
  if (mean) ++count;
  // One one-sided drift test per claimed side (a two-sided band claims
  // both and contributes two comparisons).
  if (mean_upper) ++count;
  if (mean_lower) ++count;
  if (variance) ++count;
  if (!pmf.empty()) ++count;
  if (unfair_probability) ++count;
  // A vacuous bound (>= 1) is demoted to a structural pass by the judge,
  // so it must not inflate the Bonferroni denominator.
  if (unfair_upper_bound && *unfair_upper_bound < 1.0) ++count;
  return count;
}

double TrackedInitialShare(const sim::CampaignCell& cell) {
  const std::vector<double> stakes = cell.Stakes();
  double total = 0.0;
  for (const double s : stakes) total += s;
  return stakes[0] / total;
}

// ---------------------------------------------------------------------------
// BinomialProportionalityOracle (PoW / NEO, Section 4.2)
// ---------------------------------------------------------------------------

bool BinomialProportionalityOracle::AppliesTo(
    const sim::CampaignCell& cell) const {
  return cell.protocol == "pow" || cell.protocol == "neo";
}

OraclePrediction BinomialProportionalityOracle::Predict(
    const sim::CampaignCell& cell, const core::FairnessSpec& fairness,
    std::uint64_t steps) const {
  const double a = TrackedInitialShare(cell);
  OraclePrediction prediction;
  prediction.mean = a;
  prediction.variance = a * (1.0 - a) / static_cast<double>(steps);
  prediction.pmf.resize(static_cast<std::size_t>(steps) + 1);
  for (std::uint64_t k = 0; k <= steps; ++k) {
    prediction.pmf[static_cast<std::size_t>(k)] =
        math::BinomialPmf(steps, k, a);
  }
  ExactUnfairFromPmf(prediction.pmf, steps, a, fairness, prediction);
  prediction.unfair_upper_bound =
      core::PowUnfairUpperBound(steps, a, fairness.epsilon);
  return prediction;
}

// ---------------------------------------------------------------------------
// PolyaBetaLimitOracle (ML-PoS / FSL-PoS / degenerate C-PoS, Section 4.3)
// ---------------------------------------------------------------------------

bool PolyaBetaLimitOracle::AppliesTo(const sim::CampaignCell& cell) const {
  if (cell.withhold != 0) return false;
  if (cell.protocol == "mlpos" || cell.protocol == "fslpos") return true;
  return cell.protocol == "cpos" && cell.v == 0.0 && cell.shards == 1;
}

OraclePrediction PolyaBetaLimitOracle::Predict(
    const sim::CampaignCell& cell, const core::FairnessSpec& fairness,
    std::uint64_t steps) const {
  const std::vector<double> stakes = cell.Stakes();
  double total = 0.0;
  for (const double s : stakes) total += s;
  const double s0 = stakes[0];
  // Aggregating the minnows into one color is exact: selection is
  // proportional to mass and every win reinforces by the same w, so the
  // tracked color's share tends to Beta(s0 / w, s1 / w) [Mahmoud 2008,
  // Thm 3.2].
  const double alpha = s0 / cell.w;
  const double beta = (total - s0) / cell.w;
  const double a = s0 / total;
  const double n = static_cast<double>(steps);

  OraclePrediction prediction;
  prediction.mean = a;
  // Var[K/n] for K ~ BetaBin(n, α, β):  αβ(α+β+n) / (n (α+β)² (α+β+1)).
  // This IS the equitability claim (Fanti et al.): dividing by a(1-a)
  // gives (α+β+n)/(n(α+β+1)), which for α+β = 1/w is (1/n + w)/(1 + w)
  // -> w/(1+w) = the closed-form MlPosLimitNormalisedVariance as
  // n -> infinity (pinned by oracle_test).
  const double ab = alpha + beta;
  prediction.variance = alpha * beta * (ab + n) / (n * ab * ab * (ab + 1.0));
  prediction.pmf.resize(static_cast<std::size_t>(steps) + 1);
  for (std::uint64_t k = 0; k <= steps; ++k) {
    prediction.pmf[static_cast<std::size_t>(k)] =
        math::BetaBinomialPmf(steps, k, alpha, beta);
  }
  ExactUnfairFromPmf(prediction.pmf, steps, a, fairness, prediction);
  prediction.unfair_upper_bound =
      core::MlPosUnfairUpperBound(steps, cell.w / total, a, fairness.epsilon);
  return prediction;
}

// ---------------------------------------------------------------------------
// CPosMartingaleOracle (Theorem 4.10)
// ---------------------------------------------------------------------------

bool CPosMartingaleOracle::AppliesTo(const sim::CampaignCell& cell) const {
  return cell.protocol == "cpos" && cell.withhold == 0;
}

OraclePrediction CPosMartingaleOracle::Predict(
    const sim::CampaignCell& cell, const core::FairnessSpec& fairness,
    std::uint64_t steps) const {
  const double a = TrackedInitialShare(cell);
  OraclePrediction prediction;
  // Each epoch's expected reward is (w+v) * (stake share), so the share is
  // a martingale and E[λ_n] = a exactly for every n.
  prediction.mean = a;
  prediction.unfair_upper_bound = core::CPosUnfairUpperBound(
      steps, cell.w, cell.v, cell.shards, a, fairness.epsilon);
  return prediction;
}

// ---------------------------------------------------------------------------
// SlPosDriftOracle (Theorem 4.9)
// ---------------------------------------------------------------------------

bool SlPosDriftOracle::AppliesTo(const sim::CampaignCell& cell) const {
  return cell.protocol == "slpos" && cell.miners == 2 && cell.withhold == 0;
}

OraclePrediction SlPosDriftOracle::Predict(const sim::CampaignCell& cell,
                                           const core::FairnessSpec& fairness,
                                           std::uint64_t steps) const {
  (void)fairness;
  (void)steps;
  const double a = TrackedInitialShare(cell);
  OraclePrediction prediction;
  if (std::fabs(a - 0.5) < 1e-12) {
    // Perfect symmetry: the two miners are exchangeable, so E[λ] = 1/2.
    prediction.mean = 0.5;
  } else if (a < 0.5) {
    // The uniform-deadline race favours the richer miner beyond
    // proportionality (win probability a/(2(1-a)) < a), so the poorer
    // miner's expected reward fraction sits below a at every horizon.
    prediction.mean_upper = a;
  } else {
    prediction.mean_lower = a;
  }
  return prediction;
}

// ---------------------------------------------------------------------------
// DeterministicShareOracle (Algorand / EOS, Section 6.4)
// ---------------------------------------------------------------------------

bool DeterministicShareOracle::AppliesTo(const sim::CampaignCell& cell) const {
  return (cell.protocol == "algorand" || cell.protocol == "eos") &&
         cell.withhold == 0;
}

OraclePrediction DeterministicShareOracle::Predict(
    const sim::CampaignCell& cell, const core::FairnessSpec& fairness,
    std::uint64_t steps) const {
  (void)fairness;
  OraclePrediction prediction;
  if (cell.protocol == "algorand") {
    // Proportional inflation leaves shares invariant: λ_n = a for all n.
    prediction.deterministic_lambda = TrackedInitialShare(cell);
    return prediction;
  }
  // EOS: integrate the deterministic round recurrence.  Every round each of
  // the m delegates receives w/m plus v * (round-start stake share); both
  // credit income and compound into stake.
  std::vector<double> stakes = cell.Stakes();
  const std::size_t m = stakes.size();
  std::vector<double> income(m, 0.0);
  const double constant_part = cell.w / static_cast<double>(m);
  for (std::uint64_t step = 0; step < steps; ++step) {
    double total = 0.0;
    for (const double s : stakes) total += s;
    for (std::size_t i = 0; i < m; ++i) {
      double credit = constant_part;
      if (cell.v > 0.0 && stakes[i] > 0.0) {
        credit += cell.v * (stakes[i] / total);
      }
      income[i] += credit;
      stakes[i] += credit;
    }
  }
  double total_income = 0.0;
  for (const double r : income) total_income += r;
  prediction.deterministic_lambda = income[0] / total_income;
  return prediction;
}

// ---------------------------------------------------------------------------
// SelfishMiningRevenueOracle (Eyal & Sirer 2014, chain family)
// ---------------------------------------------------------------------------

bool SelfishMiningRevenueOracle::AppliesTo(
    const sim::CampaignCell& cell) const {
  // The closed form only exists on (0, 0.5] (see SelfishMiningRevenue's
  // domain note); majority-pool cells run unverified by this oracle.
  return cell.chain_dynamics && cell.protocol == "selfish" && cell.a <= 0.5;
}

OraclePrediction SelfishMiningRevenueOracle::Predict(
    const sim::CampaignCell& cell, const core::FairnessSpec& fairness,
    std::uint64_t steps) const {
  (void)fairness;
  const double revenue = core::SelfishMiningRevenue(cell.a, cell.gamma);
  OraclePrediction prediction;
  // Finite-horizon band: the stationary revenue R plus/minus the
  // end-of-horizon settle bias.  One withholding cycle moves at most a few
  // blocks between the numerator and denominator, so the bias is O(1/n);
  // 6/n is a comfortably conservative cap (cross-validated by
  // tests/chain/selfish_cross_validation_test.cpp).
  const double slack = 6.0 / static_cast<double>(steps);
  prediction.mean_lower = revenue - slack;
  prediction.mean_upper = revenue + slack;
  return prediction;
}

// ---------------------------------------------------------------------------
// ForkRaceOracle (renewal closed forms, chain family)
// ---------------------------------------------------------------------------

bool ForkRaceOracle::AppliesTo(const sim::CampaignCell& cell) const {
  return cell.chain_dynamics && cell.protocol == "forkrace";
}

OraclePrediction ForkRaceOracle::Predict(const sim::CampaignCell& cell,
                                         const core::FairnessSpec& fairness,
                                         std::uint64_t steps) const {
  const double a = cell.a;
  const double n = static_cast<double>(steps);
  OraclePrediction prediction;
  if (cell.delay == 0.0) {
    // No propagation window — no forks ever: every event is an iid
    // Bernoulli(a) discovery that commits, so K ~ Binomial(n, a) EXACTLY
    // and the chain observables are identically zero.
    prediction.mean = a;
    prediction.variance = a * (1.0 - a) / n;
    prediction.pmf.resize(static_cast<std::size_t>(steps) + 1);
    for (std::uint64_t k = 0; k <= steps; ++k) {
      prediction.pmf[static_cast<std::size_t>(k)] =
          math::BinomialPmf(steps, k, a);
    }
    ExactUnfairFromPmf(prediction.pmf, steps, a, fairness, prediction);
    prediction.unfair_upper_bound =
        core::PowUnfairUpperBound(steps, a, fairness.epsilon);
    prediction.orphan_rate_expected = 0.0;
    prediction.orphan_rate_tolerance = 1e-12;
    prediction.reorg_depth_expected = 0.0;
    prediction.reorg_depth_tolerance = 1e-12;
    return prediction;
  }
  // delay > 0.  Race resolution favours the majority side (the minority's
  // extension is contested more often AND it wins the uncontested round
  // less often), so E[λ] sits on the majority's side of a; exactly 1/2 at
  // a = 1/2 by exchangeability.  The small slack absorbs the open-race
  // attribution at the horizon.
  const double slack = 3.0 / n;
  if (std::fabs(a - 0.5) < 1e-12) {
    prediction.mean = 0.5;
  } else if (a < 0.5) {
    prediction.mean_upper = a + slack;
  } else {
    prediction.mean_lower = a - slack;
  }
  // Renewal closed forms: a fork opens after a synced discovery with
  // probability rho, races last Geometric(1 - rho) rounds, the loser
  // orphans whole — orphans/events -> rho/(1+rho), mean reorg depth
  // -> 1/(1-rho).
  const double rho = a * (-std::expm1(-(1.0 - a) * cell.delay)) +
                     (1.0 - a) * (-std::expm1(-a * cell.delay));
  prediction.orphan_rate_expected = rho / (1.0 + rho);
  prediction.orphan_rate_tolerance = std::max(0.02, 8.0 / n);
  // The per-replication reorg-depth mean is a ratio estimator; only claim
  // it when enough races resolve per replication for the bias to vanish
  // inside the tolerance.
  const double expected_reorgs = n * rho * (1.0 - rho) / (1.0 + rho);
  if (expected_reorgs >= 30.0) {
    prediction.reorg_depth_expected = 1.0 / (1.0 - rho);
    prediction.reorg_depth_tolerance = 0.15;
  }
  return prediction;
}

// ---------------------------------------------------------------------------
// Catalogue
// ---------------------------------------------------------------------------

const std::vector<const Oracle*>& DefaultOracles() {
  static const DeterministicShareOracle deterministic;
  static const BinomialProportionalityOracle binomial;
  static const PolyaBetaLimitOracle polya;
  static const CPosMartingaleOracle cpos;
  static const SlPosDriftOracle slpos;
  static const SelfishMiningRevenueOracle selfish;
  static const ForkRaceOracle forkrace;
  static const std::vector<const Oracle*> oracles = {
      &deterministic, &binomial, &polya, &cpos, &slpos, &selfish, &forkrace};
  return oracles;
}

}  // namespace fairchain::verify
