// Tests for the SL-PoS win probabilities of Equation (1) and Lemma 6.1.

#include "protocol/win_probability.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace fairchain::protocol {
namespace {

TEST(SlPosTwoMinerTest, PaperHeadlineValue) {
  // a = 0.2, b = 0.8: Pr[A wins] = 0.2 / 1.6 = 0.125 (Section 5.3).
  EXPECT_DOUBLE_EQ(SlPosTwoMinerWinProbability(0.2, 0.8), 0.125);
}

TEST(SlPosTwoMinerTest, EqualStakesAreFair) {
  EXPECT_DOUBLE_EQ(SlPosTwoMinerWinProbability(0.5, 0.5), 0.5);
}

TEST(SlPosTwoMinerTest, RichSideComplement) {
  EXPECT_DOUBLE_EQ(SlPosTwoMinerWinProbability(0.8, 0.2),
                   1.0 - SlPosTwoMinerWinProbability(0.2, 0.8));
}

TEST(SlPosTwoMinerTest, AlwaysBelowProportionalForPoorMiner) {
  for (int pct = 5; pct <= 45; pct += 5) {  // strictly below 1/2
    const double a = static_cast<double>(pct) / 100.0;
    const double win = SlPosTwoMinerWinProbability(a, 1.0 - a);
    EXPECT_LT(win, a) << "a=" << a;  // below proportional share
  }
}

TEST(SlPosTwoMinerTest, ZeroStakeEdges) {
  EXPECT_DOUBLE_EQ(SlPosTwoMinerWinProbability(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SlPosTwoMinerWinProbability(1.0, 0.0), 1.0);
  EXPECT_THROW(SlPosTwoMinerWinProbability(0.0, 0.0), std::invalid_argument);
}

TEST(SlPosMultiMinerTest, TwoMinerMatchesClosedForm) {
  for (double a : {0.1, 0.25, 0.4, 0.5, 0.7}) {
    const std::vector<double> stakes = {a, 1.0 - a};
    EXPECT_NEAR(SlPosMultiMinerWinProbability(stakes, 0),
                SlPosTwoMinerWinProbability(a, 1.0 - a), 1e-12)
        << "a=" << a;
  }
}

TEST(SlPosMultiMinerTest, SingleMinerAlwaysWins) {
  EXPECT_DOUBLE_EQ(SlPosMultiMinerWinProbability({0.7}, 0), 1.0);
}

TEST(SlPosMultiMinerTest, EqualStakesUniform) {
  for (std::size_t m : {2u, 3u, 5u, 10u}) {
    const std::vector<double> stakes(m, 1.0 / static_cast<double>(m));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(SlPosMultiMinerWinProbability(stakes, i),
                  1.0 / static_cast<double>(m), 1e-12);
    }
  }
}

TEST(SlPosMultiMinerTest, Lemma61PoorestMinerBelowProportional) {
  // Lemma 6.1: the poorest miner's win probability is < its share unless
  // all stakes are equal.
  const std::vector<double> stakes = {0.1, 0.2, 0.3, 0.4};
  const double win = SlPosMultiMinerWinProbability(stakes, 0);
  EXPECT_LT(win, 0.1);
}

TEST(SlPosMultiMinerTest, ZeroStakeMinerNeverWins) {
  const std::vector<double> stakes = {0.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(SlPosMultiMinerWinProbability(stakes, 0), 0.0);
  // And the remaining two split evenly.
  EXPECT_NEAR(SlPosMultiMinerWinProbability(stakes, 1), 0.5, 1e-12);
}

TEST(SlPosMultiMinerTest, Rejections) {
  EXPECT_THROW(SlPosMultiMinerWinProbability({0.5, 0.5}, 3),
               std::invalid_argument);
  EXPECT_THROW(SlPosMultiMinerWinProbability({-0.5, 0.5}, 0),
               std::invalid_argument);
  EXPECT_THROW(SlPosMultiMinerWinProbability({0.0, 0.0}, 0),
               std::invalid_argument);
}

TEST(SlPosMultiMinerTest, MonteCarloAgreement) {
  // Simulate the actual lottery (min of U_i / S_i) and compare frequencies.
  const std::vector<double> stakes = {0.15, 0.25, 0.6};
  const auto probabilities = SlPosWinProbabilities(stakes);
  RngStream rng(321);
  std::vector<int> wins(3, 0);
  const int n = 300000;
  for (int t = 0; t < n; ++t) {
    int best = -1;
    double best_deadline = 1e300;
    for (int i = 0; i < 3; ++i) {
      const double deadline = rng.NextOpenDouble() / stakes[i];
      if (deadline < best_deadline) {
        best_deadline = deadline;
        best = i;
      }
    }
    ++wins[best];
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(wins[i]) / n, probabilities[i], 0.005)
        << "miner " << i;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: win probabilities over random stake vectors must form a
// probability distribution, and the largest staker must win most often.
// ---------------------------------------------------------------------------

class SlPosDistributionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SlPosDistributionProperty, ProbabilitiesSumToOne) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 2 + rng.NextBounded(8);
    std::vector<double> stakes(m);
    for (auto& s : stakes) s = 0.01 + rng.NextDouble();
    const auto probabilities = SlPosWinProbabilities(stakes);
    double total = 0.0;
    double best_stake = 0.0, best_prob = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_GE(probabilities[i], 0.0);
      EXPECT_LE(probabilities[i], 1.0);
      total += probabilities[i];
      if (stakes[i] > best_stake) {
        best_stake = stakes[i];
        best_prob = probabilities[i];
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_LE(probabilities[i], best_prob + 1e-12);
    }
  }
}

TEST_P(SlPosDistributionProperty, ScaleInvariant) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) ^ 0xABC);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 2 + rng.NextBounded(5);
    std::vector<double> stakes(m), scaled(m);
    for (std::size_t i = 0; i < m; ++i) {
      stakes[i] = 0.01 + rng.NextDouble();
      scaled[i] = stakes[i] * 1234.5;
    }
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(SlPosMultiMinerWinProbability(stakes, i),
                  SlPosMultiMinerWinProbability(scaled, i), 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlPosDistributionProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace fairchain::protocol
