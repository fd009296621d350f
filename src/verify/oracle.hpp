// Analytic oracles: closed-form re-derivations of what each campaign cell
// must produce, computed independently of the Monte Carlo engine.
//
// The paper's central results are exact laws, not just bounds, which makes
// every simulated cell independently checkable:
//
//   * PoW / NEO select proposers with a share that never changes, so the
//     tracked miner's block count is EXACTLY Binomial(n, a) (Section 4.2);
//   * ML-PoS / FSL-PoS (and C-PoS with v = 0, P = 1) are a two-color Pólya
//     urn once the minnows are aggregated, so the block count is EXACTLY
//     Beta-Binomial(n, s0/w, s1/w), the parameters of the urn's Beta
//     limit (Section 4.3);
//   * C-PoS keeps the stake share a martingale, so E[λ] = a exactly and the
//     Theorem 4.10 Azuma bound caps the unfair probability;
//   * SL-PoS drifts monotonically toward monopoly (Theorem 4.9), pinning
//     the SIGN of E[λ] - a (and E[λ] = 1/2 exactly at a = 1/2 by symmetry);
//   * Algorand / EOS are deterministic: the whole λ trajectory has a closed
//     form (Section 6.4).
//
// An Oracle declares which cells it understands (AppliesTo) and emits an
// OraclePrediction — exact moments, an exact pmf of the block count, and/or
// analytic bounds — that the StatisticalJudge turns into accept/reject
// verdicts against replication-level samples.

#ifndef FAIRCHAIN_VERIFY_ORACLE_HPP_
#define FAIRCHAIN_VERIFY_ORACLE_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fairness.hpp"
#include "sim/scenario_spec.hpp"

namespace fairchain::verify {

/// Everything an oracle can claim about one cell's final-checkpoint λ
/// distribution.  Absent fields simply mean "no claim"; the judge only
/// tests what is present.
struct OraclePrediction {
  /// Name of the oracle that produced the prediction ("" = none).
  std::string oracle;

  /// Exact E[λ_n] (martingale protocols: the initial share).
  std::optional<double> mean;
  /// Exact Var[λ_n].
  std::optional<double> variance;
  /// One-sided drift claims (SL-PoS): E[λ_n] <= mean_upper / >= mean_lower.
  std::optional<double> mean_upper;
  std::optional<double> mean_lower;
  /// λ_n is almost surely this exact value (deterministic protocols).
  std::optional<double> deterministic_lambda;

  /// Exact pmf of K = n·λ on {0, ..., n}; empty = no distributional claim.
  /// The judge runs a chi-square GOF test against it.
  std::vector<double> pmf;

  /// Exact unfair probability Pr[λ outside the fair area], counting
  /// FP-ambiguous lattice points (k/n within ~1e-9 of a fair-area edge) as
  /// fair; `unfair_boundary_mass` is the pmf mass on those points, so the
  /// truth lies in [unfair_probability, unfair_probability + boundary mass].
  std::optional<double> unfair_probability;
  double unfair_boundary_mass = 0.0;
  /// Analytic upper bound on the unfair probability (Hoeffding / Azuma).
  /// Equitability claims ride on `variance`: for ML-PoS it equals
  /// a(1-a)(1/n + w)/(1 + w), i.e. a(1-a) times the normalised variance
  /// that tends to MlPosLimitNormalisedVariance(w).
  std::optional<double> unfair_upper_bound;

  /// Chain-dynamics claims (fork-aware cells only): the expected
  /// final-checkpoint orphan rate and mean reorg depth, each checked as a
  /// structural tolerance comparison against the cell's reduced chain
  /// observables (absolute tolerance; finite-horizon/ratio-estimator bias
  /// dominates sampling error at campaign scale, so no p-value is run and
  /// neither claim joins the Bonferroni denominator).
  std::optional<double> orphan_rate_expected;
  double orphan_rate_tolerance = 0.0;
  std::optional<double> reorg_depth_expected;
  double reorg_depth_tolerance = 0.0;

  /// Number of p-value-producing checks the judge will run for this
  /// prediction — the cell's contribution to the Bonferroni denominator.
  /// Deterministic and structural checks cannot false-alarm and do not
  /// count.
  std::size_t StochasticComparisons() const;
};

/// A closed-form cross-check for a family of campaign cells.
class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Stable identifier written into verdict rows.
  virtual std::string name() const = 0;

  /// True when this oracle's closed form is exact for `cell`.
  virtual bool AppliesTo(const sim::CampaignCell& cell) const = 0;

  /// The prediction for `cell` run for `steps` steps under `fairness`.
  /// Only called when AppliesTo(cell).
  virtual OraclePrediction Predict(const sim::CampaignCell& cell,
                                   const core::FairnessSpec& fairness,
                                   std::uint64_t steps) const = 0;
};

/// PoW / NEO: non-compounding rewards keep the selection share constant, so
/// K ~ Binomial(n, a) exactly — pmf, moments, exact unfair probability, and
/// the Theorem 4.2 Hoeffding bound.  Withholding is irrelevant (nothing
/// compounds), so this applies at any withhold period.
class BinomialProportionalityOracle : public Oracle {
 public:
  std::string name() const override { return "binomial-proportionality"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// ML-PoS / FSL-PoS / degenerate C-PoS (v = 0, P = 1): the two-color Pólya
/// urn (tracked miner vs aggregated rest) makes K ~ Beta-Binomial(n, α, β)
/// with (α, β) = (s0 / w, s1 / w) — pmf, exact moments, the exact
/// finite-n equitability (1/n + w)/(1 + w), the exact unfair probability,
/// and the Theorem 4.3 Azuma bound.  Requires withhold == 0 (withholding
/// breaks the urn's reinforcement schedule).
class PolyaBetaLimitOracle : public Oracle {
 public:
  std::string name() const override { return "polya-beta-limit"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// General C-PoS: the stake share is a martingale, so E[λ] = a exactly;
/// the Theorem 4.10 Azuma bound caps the unfair probability.  Requires
/// withhold == 0.
class CPosMartingaleOracle : public Oracle {
 public:
  std::string name() const override { return "cpos-martingale"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// Two-miner SL-PoS: Theorem 4.9's monopolisation drift pins the side of a
/// that E[λ] lies on (below for a < 1/2, above for a > 1/2, exactly 1/2 at
/// a = 1/2 by symmetry).  Requires miners == 2 and withhold == 0.
class SlPosDriftOracle : public Oracle {
 public:
  std::string name() const override { return "slpos-drift"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// Algorand / EOS: both protocols are deterministic, so λ_n has a closed
/// form.  Algorand's proportional inflation leaves shares invariant
/// (λ = a for every n); EOS's constant w/m proposer reward follows a
/// deterministic recurrence the oracle integrates directly.  Requires
/// withhold == 0.
class DeterministicShareOracle : public Oracle {
 public:
  std::string name() const override { return "deterministic-share"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// Chain-dynamics "selfish" cells with alpha <= 0.5: the Eyal–Sirer
/// closed-form revenue share R(alpha, gamma) pins E[λ] of the selfish
/// kernel inside a ±O(1/n) finite-horizon band (mean_lower AND mean_upper,
/// one one-sided drift check per side).  The band, not an exact mean
/// claim, because R is the stationary revenue while the simulated horizon
/// is finite: the end-of-horizon lead settle biases λ by at most a few
/// blocks, i.e. O(1/n) on the λ scale.
class SelfishMiningRevenueOracle : public Oracle {
 public:
  std::string name() const override { return "selfish-revenue"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// Chain-dynamics "forkrace" cells.  At delay = 0 the model collapses to
/// iid proportional discovery, so K ~ Binomial(n, a) EXACTLY — the full
/// binomial battery (pmf, moments, exact unfair probability, Hoeffding
/// bound) plus exact zero-orphan claims.  For delay > 0: race resolution
/// favours the majority side, pinning the side of a that E[λ] lies on
/// (exactly 1/2 at a = 1/2 by symmetry), and the renewal closed forms
/// ρ = a(1-e^{-(1-a)d}) + (1-a)(1-e^{-ad}), orphan rate ρ/(1+ρ), reorg
/// depth 1/(1-ρ) bound the chain observables within tolerance.
class ForkRaceOracle : public Oracle {
 public:
  std::string name() const override { return "forkrace-renewal"; }
  bool AppliesTo(const sim::CampaignCell& cell) const override;
  OraclePrediction Predict(const sim::CampaignCell& cell,
                           const core::FairnessSpec& fairness,
                           std::uint64_t steps) const override;
};

/// The default oracle catalogue, in match order (first AppliesTo wins).
/// Returns pointers to function-local statics; never null entries.
const std::vector<const Oracle*>& DefaultOracles();

/// The tracked miner's initial resource share for `cell`, computed exactly
/// as the Monte Carlo reduction computes it (stakes[0] / Σ stakes) so
/// oracle claims about a match the engine's own normalisation.
double TrackedInitialShare(const sim::CampaignCell& cell);

}  // namespace fairchain::verify

#endif  // FAIRCHAIN_VERIFY_ORACLE_HPP_
