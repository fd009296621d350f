// Tests for environment-variable helpers.

#include "support/env.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("FAIRCHAIN_TEST_VAR");
    unsetenv("FAIRCHAIN_THREADS");
  }
  void TearDown() override { SetUp(); }
};

TEST_F(EnvTest, GetEnvUnsetReturnsNullopt) {
  EXPECT_FALSE(GetEnv("FAIRCHAIN_TEST_VAR").has_value());
}

TEST_F(EnvTest, GetEnvEmptyReturnsNullopt) {
  setenv("FAIRCHAIN_TEST_VAR", "", 1);
  EXPECT_FALSE(GetEnv("FAIRCHAIN_TEST_VAR").has_value());
}

TEST_F(EnvTest, GetEnvReturnsValue) {
  setenv("FAIRCHAIN_TEST_VAR", "hello", 1);
  EXPECT_EQ(GetEnv("FAIRCHAIN_TEST_VAR").value(), "hello");
}

TEST_F(EnvTest, EnvThreadsExplicit) {
  setenv("FAIRCHAIN_THREADS", "3", 1);
  EXPECT_EQ(EnvThreads(), 3u);
}

TEST_F(EnvTest, EnvThreadsDefaultsPositive) {
  EXPECT_GE(EnvThreads(), 1u);
}

TEST_F(EnvTest, EnvThreadsEmptyKeepsTheHardwareDefault) {
  const unsigned hardware = EnvThreads();
  setenv("FAIRCHAIN_THREADS", "", 1);
  EXPECT_EQ(EnvThreads(), hardware);
}

TEST_F(EnvTest, EnvThreadsAcceptsTheBounds) {
  setenv("FAIRCHAIN_THREADS", "1", 1);
  EXPECT_EQ(EnvThreads(), 1u);
  setenv("FAIRCHAIN_THREADS", "4096", 1);
  EXPECT_EQ(EnvThreads(), 4096u);
}

// Each value must fail with a message naming the variable rather than wrap
// (2^32 + 1 narrows to 1), run on a numeric prefix (12abc), fall back to the
// hardware count (abc), or mean "no workers" (0).
TEST_F(EnvTest, EnvThreadsRejectsAnythingButAWholeNumberInRange) {
  for (const char* value :
       {"4294967297", "12abc", "abc", "0", "4097", "-1", " 4", "4 "}) {
    setenv("FAIRCHAIN_THREADS", value, 1);
    try {
      EnvThreads();
      ADD_FAILURE() << "FAIRCHAIN_THREADS=" << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("FAIRCHAIN_THREADS"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace fairchain
