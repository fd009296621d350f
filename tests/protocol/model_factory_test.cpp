// Tests for the name-to-model factory shared by the CLI and the sim layer.

#include "protocol/model_factory.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace fairchain::protocol {
namespace {

TEST(ModelFactoryTest, ConstructsEveryKnownModel) {
  for (const std::string& name : KnownModelNames()) {
    const auto model = MakeModel(name, 0.01, 0.1, 32);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_FALSE(model->name().empty()) << name;
    EXPECT_GT(model->RewardPerStep(), 0.0) << name;
  }
}

TEST(ModelFactoryTest, KnownNamesAndPredicateAgree) {
  EXPECT_GE(KnownModelNames().size(), 8u);
  for (const std::string& name : KnownModelNames()) {
    EXPECT_TRUE(IsKnownModelName(name)) << name;
  }
  EXPECT_FALSE(IsKnownModelName("pot"));
  EXPECT_FALSE(IsKnownModelName(""));
}

TEST(ModelFactoryTest, UnknownNameThrowsListingKnownOnes) {
  try {
    MakeModel("nosuch", 0.01, 0.1, 32);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("mlpos"), std::string::npos);
  }
}

// Every model's reward predicate rejects inf and NaN, which would
// otherwise run and report NaN λ (and would break the unchecked credit
// arms' finite, non-negative precondition).
TEST(ModelFactoryTest, EveryModelRejectsNonFiniteRewards) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::string& name : KnownModelNames()) {
    for (const double bad : {inf, nan}) {
      // Algorand's only reward is v; every other model's w.
      const double w = name == "algorand" ? 0.01 : bad;
      const double v = name == "algorand" ? bad : 0.1;
      EXPECT_THROW(MakeModel(name, w, v, 32), std::invalid_argument)
          << name << " accepted " << bad;
    }
  }
  for (const std::string name : {"cpos", "eos"}) {
    EXPECT_THROW(MakeModel(name, 0.01, inf, 32), std::invalid_argument)
        << name;
    EXPECT_THROW(MakeModel(name, 0.01, nan, 32), std::invalid_argument)
        << name;
    EXPECT_NO_THROW(MakeModel(name, 0.01, 0.0, 32)) << name;
  }
}

TEST(ModelFactoryTest, ParametersReachTheModel) {
  const auto pow = MakeModel("pow", 0.5, 0.0, 1);
  EXPECT_DOUBLE_EQ(pow->RewardPerStep(), 0.5);
  const auto cpos = MakeModel("cpos", 0.01, 0.1, 32);
  EXPECT_DOUBLE_EQ(cpos->RewardPerStep(), 0.01 + 0.1);
}

}  // namespace
}  // namespace fairchain::protocol
