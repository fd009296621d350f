// Tests for the selfish-mining closed form and threshold (Eyal-Sirer
// model).  The event-level state machine is the chain kernel's; its tests
// live in tests/chain/.

#include "core/selfish_mining.hpp"

#include <limits>

#include <gtest/gtest.h>

namespace fairchain::core {
namespace {

TEST(SelfishRevenueTest, Validation) {
  EXPECT_THROW(SelfishMiningRevenue(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(SelfishMiningRevenue(0.6, 0.5), std::invalid_argument);
  EXPECT_THROW(SelfishMiningRevenue(0.3, -0.1), std::invalid_argument);
  EXPECT_THROW(SelfishMiningRevenue(0.3, 1.1), std::invalid_argument);
}

TEST(SelfishRevenueTest, RejectsNaNParameters) {
  // Negated-comparison validation: NaN must fail every range check
  // instead of flowing into the closed form and poisoning downstream
  // oracle bands.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SelfishMiningRevenue(nan, 0.5), std::invalid_argument);
  EXPECT_THROW(SelfishMiningRevenue(0.3, nan), std::invalid_argument);
  EXPECT_THROW(SelfishMiningThreshold(nan), std::invalid_argument);
}

TEST(SelfishRevenueTest, EqualsAlphaAtThreshold) {
  // At gamma = 0 the threshold is 1/3 and R(1/3, 0) = 1/3 exactly.
  EXPECT_NEAR(SelfishMiningRevenue(1.0 / 3.0, 0.0), 1.0 / 3.0, 1e-12);
  // At gamma = 1 the threshold is 0: any alpha profits.
  EXPECT_GT(SelfishMiningRevenue(0.1, 1.0), 0.1);
}

TEST(SelfishRevenueTest, BelowThresholdUnprofitable) {
  EXPECT_LT(SelfishMiningRevenue(0.2, 0.0), 0.2);
  EXPECT_LT(SelfishMiningRevenue(0.3, 0.0), 0.3);
}

TEST(SelfishRevenueTest, AboveThresholdProfitable) {
  EXPECT_GT(SelfishMiningRevenue(0.4, 0.0), 0.4);
  EXPECT_GT(SelfishMiningRevenue(0.45, 0.5), 0.45);
}

TEST(SelfishRevenueTest, IncreasingInGamma) {
  double prev = 0.0;
  for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double revenue = SelfishMiningRevenue(0.3, gamma);
    EXPECT_GT(revenue, prev);
    prev = revenue;
  }
}

TEST(SelfishThresholdTest, ClassicValues) {
  EXPECT_NEAR(SelfishMiningThreshold(0.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(SelfishMiningThreshold(0.5), 0.25, 1e-12);
  EXPECT_NEAR(SelfishMiningThreshold(1.0), 0.0, 1e-12);
  EXPECT_THROW(SelfishMiningThreshold(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace fairchain::core
