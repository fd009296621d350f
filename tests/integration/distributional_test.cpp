// Distributional integration tests: rigorous goodness-of-fit checks of the
// laws the paper's analysis rests on.
//
//   * ML-PoS block counts follow the EXACT finite-n Beta-Binomial law of
//     the Pólya urn (chi-square GOF) — the backbone of Section 4.3;
//   * FSL-PoS and ML-PoS produce the same λ distribution (two-sample KS) —
//     why the Section 6.2 treatment inherits ML-PoS's robust-fairness
//     limits;
//   * C-PoS with v = 0, P = 1 degenerates to ML-PoS (two-sample KS) — the
//     remark after Theorem 4.10;
//   * PoW block counts are exactly Binomial (chi-square GOF).

#include <cmath>

#include <gtest/gtest.h>

#include "math/ks_test.hpp"
#include "math/special.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "support/rng.hpp"

namespace fairchain {
namespace {

// Collects the number of blocks miner A wins across replications.
template <typename Model>
std::vector<std::uint64_t> WinCounts(const Model& model, double a,
                                     std::uint64_t blocks,
                                     std::uint64_t reps,
                                     std::uint64_t seed) {
  std::vector<std::uint64_t> counts(blocks + 1, 0);
  const RngStream master(seed);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    protocol::StakeState state({a, 1.0 - a});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), blocks, rng);
    const double lambda = state.RewardFraction(0);
    const auto wins = static_cast<std::uint64_t>(
        std::llround(lambda * static_cast<double>(blocks)));
    ++counts[wins];
  }
  return counts;
}

template <typename Model>
std::vector<double> FinalLambdas(const Model& model, double a,
                                 std::uint64_t blocks, std::uint64_t reps,
                                 std::uint64_t seed) {
  std::vector<double> lambdas;
  lambdas.reserve(reps);
  const RngStream master(seed);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    protocol::StakeState state({a, 1.0 - a});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), blocks, rng);
    lambdas.push_back(state.RewardFraction(0));
  }
  return lambdas;
}

TEST(Distributional, PowWinCountsAreExactlyBinomial) {
  const std::uint64_t n = 60;
  const double a = 0.2;
  protocol::PowModel model(1.0);
  const auto counts = WinCounts(model, a, n, 20000, 11);
  std::vector<double> probabilities(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) {
    probabilities[k] = math::BinomialPmf(n, k, a);
  }
  const auto result = math::ChiSquareGofTest(counts, probabilities);
  EXPECT_GT(result.p_value, 0.001)
      << "chi2=" << result.statistic << " df=" << result.degrees;
}

TEST(Distributional, MlPosWinCountsAreExactlyBetaBinomial) {
  // The Section 4.3 claim, finite-n exact form: K ~ BetaBin(n, a/w, b/w).
  const std::uint64_t n = 60;
  const double a = 0.2;
  const double w = 0.05;  // alpha = 4, beta = 16
  protocol::MlPosModel model(w);
  const auto counts = WinCounts(model, a, n, 20000, 12);
  std::vector<double> probabilities(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) {
    probabilities[k] = math::BetaBinomialPmf(n, k, a / w, (1.0 - a) / w);
  }
  const auto result = math::ChiSquareGofTest(counts, probabilities);
  EXPECT_GT(result.p_value, 0.001)
      << "chi2=" << result.statistic << " df=" << result.degrees;
}

TEST(Distributional, MlPosIsNotBinomial) {
  // Negative control: the same counts must decisively reject the i.i.d.
  // Binomial law — compounding really changes the distribution.
  const std::uint64_t n = 60;
  const double a = 0.2;
  protocol::MlPosModel model(0.05);
  const auto counts = WinCounts(model, a, n, 20000, 13);
  std::vector<double> probabilities(n + 1);
  for (std::uint64_t k = 0; k <= n; ++k) {
    probabilities[k] = math::BinomialPmf(n, k, a);
  }
  const auto result = math::ChiSquareGofTest(counts, probabilities);
  EXPECT_LT(result.p_value, 1e-10);
}

TEST(Distributional, FslPosMatchesMlPosLaw) {
  protocol::FslPosModel fsl(0.05);
  protocol::MlPosModel ml(0.05);
  const auto a_sample = FinalLambdas(fsl, 0.2, 400, 4000, 14);
  const auto b_sample = FinalLambdas(ml, 0.2, 400, 4000, 15);
  const auto result = math::KsTestTwoSample(a_sample, b_sample);
  EXPECT_GT(result.p_value, 0.001) << "D=" << result.statistic;
}

TEST(Distributional, CPosDegeneratesToMlPos) {
  protocol::CPosModel cpos(0.05, 0.0, 1);
  protocol::MlPosModel ml(0.05);
  const auto a_sample = FinalLambdas(cpos, 0.2, 400, 4000, 16);
  const auto b_sample = FinalLambdas(ml, 0.2, 400, 4000, 17);
  const auto result = math::KsTestTwoSample(a_sample, b_sample);
  EXPECT_GT(result.p_value, 0.001) << "D=" << result.statistic;
}

TEST(Distributional, PowAndMlPosLawsDiffer) {
  // Positive control for the two-sample machinery at matched (a, n).
  protocol::PowModel pow_model(0.05);
  protocol::MlPosModel ml(0.05);
  const auto a_sample = FinalLambdas(pow_model, 0.2, 400, 4000, 18);
  const auto b_sample = FinalLambdas(ml, 0.2, 400, 4000, 19);
  const auto result = math::KsTestTwoSample(a_sample, b_sample);
  EXPECT_LT(result.p_value, 1e-6);
}

}  // namespace
}  // namespace fairchain
