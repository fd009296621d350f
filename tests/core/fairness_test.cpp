// Tests for the fairness definitions (Definitions 3.1 and 4.1).

#include "core/fairness.hpp"

#include <limits>

#include <gtest/gtest.h>

namespace fairchain::core {
namespace {

TEST(FairnessSpecTest, DefaultsMatchPaper) {
  FairnessSpec spec;
  EXPECT_DOUBLE_EQ(spec.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(spec.delta, 0.1);
}

TEST(FairnessSpecTest, FairAreaEdges) {
  FairnessSpec spec{0.1, 0.1};
  EXPECT_DOUBLE_EQ(spec.FairLow(0.2), 0.18);
  EXPECT_DOUBLE_EQ(spec.FairHigh(0.2), 0.22);
}

TEST(FairnessSpecTest, InFairAreaBoundariesInclusive) {
  FairnessSpec spec{0.1, 0.1};
  // Use the spec's own edge values: the interval is closed.
  EXPECT_TRUE(spec.InFairArea(spec.FairLow(0.2), 0.2));
  EXPECT_TRUE(spec.InFairArea(spec.FairHigh(0.2), 0.2));
  EXPECT_TRUE(spec.InFairArea(0.2, 0.2));
  EXPECT_FALSE(spec.InFairArea(0.1799, 0.2));
  EXPECT_FALSE(spec.InFairArea(0.2201, 0.2));
}

TEST(FairnessSpecTest, ZeroEpsilonDegenerates) {
  FairnessSpec spec{0.0, 0.1};
  EXPECT_TRUE(spec.InFairArea(0.2, 0.2));
  EXPECT_FALSE(spec.InFairArea(0.2000001, 0.2));
}

TEST(FairnessSpecTest, ValidationRejectsBadValues) {
  EXPECT_THROW((FairnessSpec{-0.1, 0.1}.Validate()), std::invalid_argument);
  EXPECT_THROW((FairnessSpec{0.1, -0.1}.Validate()), std::invalid_argument);
  EXPECT_THROW((FairnessSpec{0.1, 1.1}.Validate()), std::invalid_argument);
  EXPECT_NO_THROW((FairnessSpec{0.0, 0.0}.Validate()));
  EXPECT_NO_THROW((FairnessSpec{0.5, 1.0}.Validate()));
}

TEST(FairnessSpecTest, ValidationRejectsNanAndInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((FairnessSpec{nan, 0.1}.Validate()), std::invalid_argument);
  EXPECT_THROW((FairnessSpec{inf, 0.1}.Validate()), std::invalid_argument);
  EXPECT_THROW((FairnessSpec{0.1, nan}.Validate()), std::invalid_argument);
  EXPECT_THROW((FairnessSpec{0.1, inf}.Validate()), std::invalid_argument);
  EXPECT_THROW((FairnessSpec{0.1, -inf}.Validate()), std::invalid_argument);
}

TEST(ExpectationalFairnessTest, ConsistentSample) {
  // Mean 0.2 with symmetric noise: consistent with a = 0.2.
  std::vector<double> lambdas;
  for (int i = 0; i < 1000; ++i) {
    lambdas.push_back(0.2 + ((i % 2 == 0) ? 0.01 : -0.01));
  }
  const auto report = CheckExpectationalFairness(lambdas, 0.2);
  EXPECT_TRUE(report.consistent);
  EXPECT_NEAR(report.sample_mean, 0.2, 1e-12);
  EXPECT_NEAR(report.z_score, 0.0, 1e-6);
}

TEST(ExpectationalFairnessTest, InconsistentSample) {
  std::vector<double> lambdas;
  for (int i = 0; i < 1000; ++i) {
    lambdas.push_back(0.15 + ((i % 2 == 0) ? 0.01 : -0.01));
  }
  const auto report = CheckExpectationalFairness(lambdas, 0.2);
  EXPECT_FALSE(report.consistent);
  EXPECT_LT(report.z_score, -4.0);
}

TEST(ExpectationalFairnessTest, RejectsEmpty) {
  EXPECT_THROW(CheckExpectationalFairness({}, 0.2), std::invalid_argument);
}

TEST(ExpectationalFairnessTest, ZeroVarianceExactMatch) {
  const std::vector<double> lambdas(100, 0.2);
  const auto report = CheckExpectationalFairness(lambdas, 0.2);
  EXPECT_TRUE(report.consistent);
  EXPECT_EQ(report.z_score, 0.0);
}

TEST(UnfairProbabilityTest, CountsOutsideFairArea) {
  FairnessSpec spec{0.1, 0.1};
  // Fair area around 0.2 is [0.18, 0.22]; use strictly interior/exterior
  // values to avoid floating-point boundary sensitivity.
  const std::vector<double> lambdas = {0.10, 0.181, 0.20, 0.219, 0.30};
  EXPECT_DOUBLE_EQ(UnfairProbability(lambdas, 0.2, spec), 0.4);
}

TEST(UnfairProbabilityTest, AllInside) {
  FairnessSpec spec{0.1, 0.1};
  const std::vector<double> lambdas(50, 0.2);
  EXPECT_DOUBLE_EQ(UnfairProbability(lambdas, 0.2, spec), 0.0);
}

TEST(SatisfiesRobustFairnessTest, ThresholdAtDelta) {
  FairnessSpec spec{0.1, 0.2};
  // 1 of 5 outside = 0.2 unfair probability: exactly delta, satisfied.
  const std::vector<double> lambdas = {0.2, 0.2, 0.2, 0.2, 0.5};
  EXPECT_TRUE(SatisfiesRobustFairness(lambdas, 0.2, spec));
  // 2 of 5 outside = 0.4 > delta.
  const std::vector<double> worse = {0.2, 0.2, 0.2, 0.5, 0.5};
  EXPECT_FALSE(SatisfiesRobustFairness(worse, 0.2, spec));
}

TEST(SatisfiesRobustFairnessTest, PerfectProtocolAlwaysSatisfies) {
  FairnessSpec spec{0.0, 0.0};
  const std::vector<double> lambdas(10, 0.2);
  EXPECT_TRUE(SatisfiesRobustFairness(lambdas, 0.2, spec));
}

}  // namespace
}  // namespace fairchain::core
