// Tests for the SL-PoS drift of Equation (2) and its zero set
// (Theorem 4.9).  The share process itself is SlPosModel, whose tests
// (protocol/sl_pos_model_test.cpp) check monopolisation and Lemma 4.8.

#include "core/stochastic_approximation.hpp"

#include <gtest/gtest.h>

#include "protocol/win_probability.hpp"

namespace fairchain::core {
namespace {

TEST(DriftTest, ZeroAtFixedPoints) {
  EXPECT_DOUBLE_EQ(SlPosDriftTwoMiner(0.0), 0.0);
  EXPECT_DOUBLE_EQ(SlPosDriftTwoMiner(0.5), 0.0);
  EXPECT_DOUBLE_EQ(SlPosDriftTwoMiner(1.0), 0.0);
}

TEST(DriftTest, NegativeBelowHalf) {
  // Figure 1: at Z = 0.3 the win probability is below 30 %, so the share
  // drifts down.
  for (const double z : {0.1, 0.2, 0.3, 0.4, 0.49}) {
    EXPECT_LT(SlPosDriftTwoMiner(z), 0.0) << "z=" << z;
  }
}

TEST(DriftTest, PositiveAboveHalf) {
  for (const double z : {0.51, 0.6, 0.7, 0.8, 0.9}) {
    EXPECT_GT(SlPosDriftTwoMiner(z), 0.0) << "z=" << z;
  }
}

TEST(DriftTest, MatchesWinProbabilityMinusShare) {
  // f(z) = Pr[A wins | share z] - z with the Section 2.3 closed form.
  for (const double z : {0.1, 0.25, 0.4, 0.6, 0.85}) {
    const double win = protocol::SlPosTwoMinerWinProbability(z, 1.0 - z);
    EXPECT_NEAR(SlPosDriftTwoMiner(z), win - z, 1e-12) << "z=" << z;
  }
}

TEST(DriftTest, PaperExampleValues) {
  // At z = 0.3: win probability = 0.3 / 1.4 = 0.2143 -> drift ≈ -0.0857.
  EXPECT_NEAR(SlPosDriftTwoMiner(0.3), 0.3 / 1.4 - 0.3, 1e-12);
  // At z = 0.7 symmetry gives +0.0857.
  EXPECT_NEAR(SlPosDriftTwoMiner(0.7), -(SlPosDriftTwoMiner(0.3)), 1e-12);
}

TEST(DriftTest, AntisymmetricAboutHalf) {
  for (const double d : {0.05, 0.15, 0.3, 0.45}) {
    EXPECT_NEAR(SlPosDriftTwoMiner(0.5 + d), -SlPosDriftTwoMiner(0.5 - d),
                1e-12);
  }
}

TEST(DriftTest, RejectsOutOfRange) {
  EXPECT_THROW(SlPosDriftTwoMiner(-0.1), std::invalid_argument);
  EXPECT_THROW(SlPosDriftTwoMiner(1.1), std::invalid_argument);
}

TEST(ZeroFinderTest, SlPosZerosAreThePaperSet) {
  const auto zeros = SlPosTwoMinerZeros();
  ASSERT_EQ(zeros.size(), 3u);
  EXPECT_NEAR(zeros[0].location, 0.0, 1e-9);
  EXPECT_NEAR(zeros[1].location, 0.5, 1e-9);
  EXPECT_NEAR(zeros[2].location, 1.0, 1e-9);
}

TEST(ZeroFinderTest, StabilityClassificationMatchesTheorem49) {
  const auto zeros = SlPosTwoMinerZeros();
  ASSERT_EQ(zeros.size(), 3u);
  EXPECT_TRUE(zeros[0].stable);   // 0 is stable
  EXPECT_FALSE(zeros[1].stable);  // 1/2 is unstable
  EXPECT_TRUE(zeros[2].stable);   // 1 is stable
}

TEST(ZeroFinderTest, FindsInteriorSignChange) {
  // f(x) = x - 0.3: single stable-from-above zero at 0.3.
  const auto zeros =
      FindDriftZeros([](double x) { return 0.3 - x; });
  ASSERT_EQ(zeros.size(), 1u);
  EXPECT_NEAR(zeros[0].location, 0.3, 1e-9);
  EXPECT_TRUE(zeros[0].stable);
}

TEST(ZeroFinderTest, UnstableInteriorZero) {
  const auto zeros =
      FindDriftZeros([](double x) { return x - 0.6; });
  ASSERT_EQ(zeros.size(), 1u);
  EXPECT_NEAR(zeros[0].location, 0.6, 1e-9);
  EXPECT_FALSE(zeros[0].stable);
}

}  // namespace
}  // namespace fairchain::core
