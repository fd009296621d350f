// Tests for StakeState: crediting, compounding, and reward withholding.

#include "protocol/stake_state.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace fairchain::protocol {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Runs `action`, which must throw std::invalid_argument whose message
// contains `needle`.
template <typename Action>
void ExpectInvalidArgument(Action action, const std::string& needle) {
  try {
    action();
    ADD_FAILURE() << "expected std::invalid_argument containing '" << needle
                  << "'";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

// Bit-for-bit equality (EXPECT_EQ on doubles would accept -0.0 == +0.0).
void ExpectSameBits(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

TEST(StakeStateTest, InitialisesFromStakes) {
  StakeState state({0.2, 0.8});
  EXPECT_EQ(state.miner_count(), 2u);
  EXPECT_DOUBLE_EQ(state.stake(0), 0.2);
  EXPECT_DOUBLE_EQ(state.stake(1), 0.8);
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.0);
  EXPECT_DOUBLE_EQ(state.StakeShare(0), 0.2);
  EXPECT_DOUBLE_EQ(state.InitialShare(0), 0.2);
  EXPECT_EQ(state.step(), 0u);
  EXPECT_DOUBLE_EQ(state.total_income(), 0.0);
}

TEST(StakeStateTest, UnnormalisedStakesWork) {
  StakeState state({2.0, 8.0});
  EXPECT_DOUBLE_EQ(state.InitialShare(0), 0.2);
  EXPECT_DOUBLE_EQ(state.initial_total(), 10.0);
}

TEST(StakeStateTest, RejectsInvalidConstruction) {
  EXPECT_THROW(StakeState({}), std::invalid_argument);
  EXPECT_THROW(StakeState({-0.1, 0.5}), std::invalid_argument);
  EXPECT_THROW(StakeState({0.0, 0.0}), std::invalid_argument);
}

TEST(StakeStateTest, RejectsNonFiniteInitialStakesNamingTheIndex) {
  ExpectInvalidArgument([] { StakeState({1.0, kInf}); }, "initial stake 1");
  ExpectInvalidArgument([] { StakeState({1.0, kNaN}); }, "initial stake 1");
  ExpectInvalidArgument([] { StakeState({-kInf, 1.0}); }, "initial stake 0");
  ExpectInvalidArgument([] { StakeState({2.0, -0.5, 1.0}); },
                        "initial stake 1");
  // Finite entries whose sum overflows would make every share 0 or NaN.
  ExpectInvalidArgument([] { StakeState({1e308, 1e308}); }, "infinity");
}

TEST(StakeStateTest, CreditRejectsNonFiniteAmounts) {
  StakeState state({1.0, 2.0});
  for (const bool compounds : {true, false}) {
    for (const double amount : {kNaN, kInf, -kInf, -0.5}) {
      ExpectInvalidArgument(
          [&] { state.Credit(0, amount, compounds); }, "finite and >= 0");
    }
  }
  EXPECT_EQ(state.income(0), 0.0);
  EXPECT_EQ(state.total_income(), 0.0);
  EXPECT_EQ(state.stake(0), 1.0);
  EXPECT_EQ(state.total_stake(), 3.0);
}

TEST(StakeStateTest, CompoundingCreditRaisesStake) {
  StakeState state({0.2, 0.8});
  state.Credit(0, 0.01, /*compounds=*/true);
  EXPECT_DOUBLE_EQ(state.stake(0), 0.21);
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.01);
  EXPECT_DOUBLE_EQ(state.income(0), 0.01);
  EXPECT_DOUBLE_EQ(state.total_income(), 0.01);
}

TEST(StakeStateTest, NonCompoundingCreditLeavesStake) {
  StakeState state({0.2, 0.8});
  state.Credit(0, 0.01, /*compounds=*/false);
  EXPECT_DOUBLE_EQ(state.stake(0), 0.2);
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.0);
  EXPECT_DOUBLE_EQ(state.income(0), 0.01);
}

TEST(StakeStateTest, RewardFraction) {
  StakeState state({0.5, 0.5});
  EXPECT_DOUBLE_EQ(state.RewardFraction(0), 0.0);  // before any reward
  state.Credit(0, 3.0, true);
  state.Credit(1, 1.0, true);
  EXPECT_DOUBLE_EQ(state.RewardFraction(0), 0.75);
  EXPECT_DOUBLE_EQ(state.RewardFraction(1), 0.25);
}

TEST(StakeStateTest, NegativeCreditRejected) {
  StakeState state({1.0});
  EXPECT_THROW(state.Credit(0, -0.5, true), std::invalid_argument);
}

TEST(StakeStateTest, AdvanceStepCounts) {
  StakeState state({1.0});
  state.AdvanceStep();
  state.AdvanceStep();
  EXPECT_EQ(state.step(), 2u);
}

TEST(StakeStateTest, ResetRestoresEverything) {
  StakeState state({0.2, 0.8}, /*withhold_period=*/10);
  state.Credit(0, 0.5, true);
  state.AdvanceStep();
  state.Reset();
  EXPECT_EQ(state.stake(0), 0.2);
  EXPECT_EQ(state.total_stake(), 1.0);
  EXPECT_EQ(state.income(0), 0.0);
  EXPECT_EQ(state.total_income(), 0.0);
  EXPECT_EQ(state.step(), 0u);
  EXPECT_EQ(state.PendingTotal(), 0.0);
}

// Reset undoes only the miners the game credited.  After a seeded mix of
// compounding and income-only credits, zero-amount credits, credits to
// zero-stake miners, and withheld rewards (some released, some still
// pending), the reset state must equal a freshly built one bit for bit,
// and both samplers must pick the same winners from the same uniforms.
void ExpectResetMatchesFresh(std::uint64_t withhold_period) {
  std::vector<double> initial;
  RngStream stakes_rng(7);
  for (std::size_t i = 0; i < 37; ++i) {
    initial.push_back(i % 5 == 2 ? 0.0 : 0.1 + stakes_rng.NextDouble());
  }
  initial[4] = -0.0;  // a zero stake with the sign bit set
  StakeState state(initial, withhold_period);
  RngStream rng(20210620);
  // Several games per state: the dirty list must be emptied by each Reset,
  // and a game of income-only credits leaves the tree untouched.
  for (int game = 0; game < 4; ++game) {
    // Zero-amount compounding credits to zero-stake miners: they must not
    // move any bits Reset cannot restore.
    state.Credit(4, 0.0, /*compounds=*/true);
    state.CreditStake(2, 0.0);
    const std::uint64_t steps = 53 + static_cast<std::uint64_t>(game) * 16;
    for (std::uint64_t s = 0; s < steps; ++s) {
      const std::size_t i = rng.NextBounded(initial.size());
      const std::uint64_t kind = rng.NextBounded(5);
      const double amount = kind == 4 ? 0.0 : 0.01 + rng.NextDouble();
      if (game == 2) {
        state.Credit(i, amount, /*compounds=*/false);
      } else if (kind == 3) {
        state.CreditStake(i, amount);
      } else {
        state.Credit(i, amount, /*compounds=*/kind % 2 == 0);
      }
      state.AdvanceStep();
    }
    if (withhold_period != 0) {
      ASSERT_NE(state.step() % withhold_period, 0u);
    }
    state.Reset();
    const StakeState fresh(initial, withhold_period);
    const std::string where = "game " + std::to_string(game);
    ASSERT_EQ(state.miner_count(), fresh.miner_count());
    for (std::size_t i = 0; i < fresh.miner_count(); ++i) {
      const std::string who = where + " miner " + std::to_string(i);
      ExpectSameBits(state.stake(i), fresh.stake(i), who + " stake");
      ExpectSameBits(state.income(i), fresh.income(i), who + " income");
    }
    ExpectSameBits(state.total_stake(), fresh.total_stake(), where);
    ExpectSameBits(state.total_income(), fresh.total_income(), where);
    ExpectSameBits(state.PendingTotal(), fresh.PendingTotal(), where);
    EXPECT_EQ(state.step(), fresh.step());
    RngStream a(game + 1);
    RngStream b(game + 1);
    for (int draw = 0; draw < 4096; ++draw) {
      ASSERT_EQ(state.SampleProportionalToStake(a),
                fresh.SampleProportionalToStake(b))
          << where << " draw " << draw;
    }
    for (int draw = 0; draw < 4096; ++draw) {
      ASSERT_EQ(state.SampleProportionalToStaticStake(a),
                fresh.SampleProportionalToStaticStake(b))
          << where << " flat draw " << draw;
    }
  }
}

TEST(StakeStateTest, ResetMatchesFreshStateBitForBit) {
  ExpectResetMatchesFresh(/*withhold_period=*/0);
}

TEST(StakeStateTest, ResetMatchesFreshStateBitForBitUnderWithholding) {
  ExpectResetMatchesFresh(/*withhold_period=*/7);
}

// --- Withholding semantics (Section 6.3) ---

TEST(WithholdingTest, IncomeImmediateStakeDeferred) {
  StakeState state({0.2, 0.8}, /*withhold_period=*/1000);
  state.Credit(0, 0.01, true);
  EXPECT_DOUBLE_EQ(state.income(0), 0.01);     // income recorded now
  EXPECT_DOUBLE_EQ(state.stake(0), 0.2);       // mining power unchanged
  EXPECT_DOUBLE_EQ(state.PendingTotal(), 0.01);
}

TEST(WithholdingTest, ReleasesAtBoundary) {
  StakeState state({0.2, 0.8}, /*withhold_period=*/10);
  state.Credit(0, 0.05, true);
  for (int i = 0; i < 9; ++i) {
    state.AdvanceStep();
    EXPECT_DOUBLE_EQ(state.stake(0), 0.2) << "step " << state.step();
  }
  state.AdvanceStep();  // step 10: boundary
  EXPECT_DOUBLE_EQ(state.stake(0), 0.25);
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.05);
  EXPECT_DOUBLE_EQ(state.PendingTotal(), 0.0);
}

TEST(WithholdingTest, PaperExampleBlock1024TakesEffectAt2000) {
  // "the reward is issued at the 1,024-th block but takes effect at the
  //  2,000-th block" (Section 6.3, with period 1000).
  StakeState state({0.2, 0.8}, /*withhold_period=*/1000);
  for (int block = 1; block <= 1024; ++block) state.AdvanceStep();
  state.Credit(0, 0.07, true);  // issued during block 1024's epoch
  for (int block = 1025; block < 2000; ++block) {
    state.AdvanceStep();
    EXPECT_DOUBLE_EQ(state.stake(0), 0.2);
  }
  state.AdvanceStep();  // block 2000
  EXPECT_DOUBLE_EQ(state.stake(0), 0.27);
}

TEST(WithholdingTest, NonCompoundingUnaffected) {
  StakeState state({0.2, 0.8}, /*withhold_period=*/10);
  state.Credit(0, 0.01, /*compounds=*/false);
  EXPECT_DOUBLE_EQ(state.PendingTotal(), 0.0);
  EXPECT_DOUBLE_EQ(state.income(0), 0.01);
}

TEST(WithholdingTest, MultipleMinersReleaseTogether) {
  StakeState state({0.5, 0.5}, /*withhold_period=*/5);
  state.Credit(0, 0.1, true);
  state.Credit(1, 0.3, true);
  for (int i = 0; i < 5; ++i) state.AdvanceStep();
  EXPECT_DOUBLE_EQ(state.stake(0), 0.6);
  EXPECT_DOUBLE_EQ(state.stake(1), 0.8);
  EXPECT_DOUBLE_EQ(state.total_stake(), 1.4);
}

TEST(WithholdingTest, ZeroPeriodIsImmediate) {
  StakeState state({0.2, 0.8}, /*withhold_period=*/0);
  state.Credit(0, 0.01, true);
  EXPECT_DOUBLE_EQ(state.stake(0), 0.21);
  EXPECT_DOUBLE_EQ(state.PendingTotal(), 0.0);
}

TEST(StakeStateTest, TotalsStayConsistentUnderMixedCredits) {
  StakeState state({1.0, 2.0, 3.0});
  state.Credit(0, 0.5, true);
  state.Credit(1, 0.25, false);
  state.Credit(2, 0.125, true);
  double stake_sum = 0.0;
  double income_sum = 0.0;
  for (std::size_t i = 0; i < state.miner_count(); ++i) {
    stake_sum += state.stake(i);
    income_sum += state.income(i);
  }
  EXPECT_DOUBLE_EQ(stake_sum, state.total_stake());
  EXPECT_DOUBLE_EQ(income_sum, state.total_income());
}

}  // namespace
}  // namespace fairchain::protocol
