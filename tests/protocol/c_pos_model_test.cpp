// Tests for C-PoS (Section 2.4): sharded proposer lottery + inflation
// (Theorems 3.5, 4.10).

#include "protocol/c_pos.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "math/ks_test.hpp"
#include "math/special.hpp"
#include "protocol/ml_pos.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace fairchain::protocol {
namespace {

TEST(CPosModelTest, Metadata) {
  CPosModel model(0.01, 0.1, 32);
  EXPECT_EQ(model.name(), "C-PoS");
  EXPECT_TRUE(model.RewardCompounds());
  EXPECT_DOUBLE_EQ(model.RewardPerStep(), 0.11);
  EXPECT_DOUBLE_EQ(model.proposer_reward(), 0.01);
  EXPECT_DOUBLE_EQ(model.inflation_reward(), 0.1);
  EXPECT_EQ(model.shards(), 32u);
}

TEST(CPosModelTest, RejectsInvalidParameters) {
  EXPECT_THROW(CPosModel(0.0, 0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, -0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, 0.1, 0), std::invalid_argument);
}

TEST(CPosModelTest, RejectsNonFiniteRewards) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CPosModel(inf, 0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(nan, 0.1, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, inf, 32), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, nan, 32), std::invalid_argument);
}

// The model owns the proposer-slot cap: the spec parser and the CLI check
// their wider integers against the same kMaxShards before narrowing.
TEST(CPosModelTest, ShardCountIsCappedAtKMaxShards) {
  const auto cap = static_cast<std::uint32_t>(kMaxShards);
  EXPECT_NO_THROW(CPosModel(0.01, 0.1, cap));
  EXPECT_THROW(CPosModel(0.01, 0.1, cap + 1), std::invalid_argument);
  EXPECT_THROW(CPosModel(0.01, 0.1, 4294967295u), std::invalid_argument);
  try {
    ValidateShardCount(std::uint64_t{1} << 32, "spec: ");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "spec: shards=4294967296 is outside [1, 4096] (kMaxShards, "
                 "the proposer-slot cap)");
  }
}

TEST(CPosModelTest, EpochMintsExactTotalReward) {
  CPosModel model(0.01, 0.1, 32);
  StakeState state({0.2, 0.8});
  RngStream rng(1);
  model.Step(state, rng);
  state.AdvanceStep();
  EXPECT_NEAR(state.total_income(), 0.11, 1e-12);
  EXPECT_NEAR(state.total_stake(), 1.11, 1e-12);
}

TEST(CPosModelTest, InflationAloneIsExactlyProportional) {
  // With a tiny proposer reward the per-epoch credit is dominated by the
  // deterministic inflation share.
  CPosModel model(1e-12, 0.1, 1);
  StakeState state({0.2, 0.8});
  RngStream rng(2);
  model.Step(state, rng);
  EXPECT_NEAR(state.income(0), 0.1 * 0.2, 1e-10);
  EXPECT_NEAR(state.income(1), 0.1 * 0.8, 1e-10);
}

TEST(CPosModelTest, ProposerSlotsFollowBinomial) {
  // With v = 0 the income of miner A after one epoch is w * X / P with
  // X ~ Bin(P, a): check the first two moments.
  const std::uint32_t P = 32;
  const double w = 1.0;
  CPosModel model(w, 0.0, P);
  RunningStats slots;
  const RngStream master(3);
  for (std::uint64_t rep = 0; rep < 100000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.Step(state, rng);
    slots.Add(state.income(0) * P / w);  // recover X
  }
  EXPECT_NEAR(slots.Mean(), 32 * 0.2, 0.05);
  EXPECT_NEAR(slots.Variance(), 32 * 0.2 * 0.8, 0.15);
}

// Table 1's split: miner 0 holds a = 0.2, the other m - 1 share 0.8.
std::vector<double> Table1Split(std::size_t m) {
  std::vector<double> stakes(m, 0.8 / static_cast<double>(m - 1));
  stakes[0] = 0.2;
  return stakes;
}

// Slot counts of one v = 0, w = 1 epoch: income_i = X_i / P exactly, so
// X_i = income_i * P is recovered without rounding.
std::vector<std::uint64_t> SlotCounts(const StakeState& state,
                                      std::uint32_t shards) {
  std::vector<std::uint64_t> counts(state.miner_count());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double slots = state.income(i) * shards;
    counts[i] = static_cast<std::uint64_t>(slots);
    EXPECT_EQ(static_cast<double>(counts[i]), slots) << "miner " << i;
  }
  return counts;
}

// The m <= P count path must draw the multinomial over epoch-start shares:
// counts sum to exactly P, each marginal is Bin(P, p_i) and each pair
// covaries as -P p_i p_j.
class CPosSlotCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CPosSlotCountTest, CountsAreMultinomialOverShares) {
  const std::size_t m = GetParam();
  const std::uint32_t P = 32;
  const CPosModel model(1.0, 0.0, P);
  const std::vector<double> stakes = Table1Split(m);
  const int reps = 60000;
  std::vector<std::vector<std::uint64_t>> histograms(
      m, std::vector<std::uint64_t>(P + 1, 0));
  std::vector<double> sum(m, 0.0);
  std::vector<double> cross(m * m, 0.0);
  StakeState state(stakes);
  const RngStream master(9);
  for (int rep = 0; rep < reps; ++rep) {
    state.Reset();
    RngStream rng = master.Split(static_cast<std::uint64_t>(rep));
    model.Step(state, rng);
    const std::vector<std::uint64_t> counts = SlotCounts(state, P);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < m; ++i) {
      total += counts[i];
      ++histograms[i][counts[i]];
      sum[i] += static_cast<double>(counts[i]);
      for (std::size_t j = 0; j < m; ++j) {
        cross[i * m + j] += static_cast<double>(counts[i] * counts[j]);
      }
    }
    ASSERT_EQ(total, P) << "rep " << rep;
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> pmf(P + 1);
    for (std::uint64_t k = 0; k <= P; ++k) {
      pmf[k] = math::BinomialPmf(P, k, stakes[i]);
    }
    const math::ChiSquareResult gof =
        math::ChiSquareGofTest(histograms[i], pmf, 5.0);
    EXPECT_GE(gof.p_value, 1e-6) << "m=" << m << " miner " << i
                                 << " chi2=" << gof.statistic;
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double mean_i = sum[i] / reps;
      const double mean_j = sum[j] / reps;
      const double covariance = cross[i * m + j] / reps - mean_i * mean_j;
      const double slots = P;
      const double var_i = slots * stakes[i] * (1.0 - stakes[i]);
      const double var_j = slots * stakes[j] * (1.0 - stakes[j]);
      EXPECT_NEAR(covariance, -slots * stakes[i] * stakes[j],
                  6.0 * std::sqrt(2.0 * var_i * var_j / reps))
          << "m=" << m << " pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table1Splits, CPosSlotCountTest,
                         ::testing::Values(3u, 5u, 10u));

TEST(CPosModelTest, ZeroStakeMinersNeverWinSlotsOrRewards) {
  // Zero stake first, in the middle and last (the last positive-stake
  // miner is then not the last miner), with and without inflation and on
  // the withholding arm.
  const std::vector<std::vector<double>> layouts = {
      {0.0, 0.5, 0.5}, {0.5, 0.0, 0.5}, {0.5, 0.5, 0.0},
      {0.0, 0.3, 0.0, 0.7, 0.0}};
  for (const std::vector<double>& stakes : layouts) {
    for (const double v : {0.0, 0.1}) {
      for (const std::uint64_t withhold : {0u, 10u}) {
        const CPosModel model(0.05, v, 32);
        StakeState state(stakes, withhold);
        RngStream rng(10);
        model.RunSteps(state, state.step(), 300, rng);
        for (std::size_t i = 0; i < stakes.size(); ++i) {
          if (stakes[i] != 0.0) continue;
          EXPECT_EQ(state.income(i), 0.0) << "miner " << i << " v=" << v;
          EXPECT_EQ(state.stake(i), 0.0) << "miner " << i << " v=" << v;
        }
        EXPECT_NEAR(state.total_income(), (0.05 + v) * 300, 1e-9);
      }
    }
  }
}

TEST(CPosModelTest, EpochPathIsPickedByMinersVersusSlots) {
  // m <= P: the count path spends one uniform per miner that still has
  // slots to split (a = 0.2 of two miners: one draw) and no slot buffer.
  // m > P: the slot path spends exactly P uniforms and fills the buffer.
  auto draws = [](std::size_t miners) {
    const CPosModel model(0.01, 0.1, 32);
    StakeState state(Table1Split(miners));
    RngStream rng(11);
    RngStream probe = rng;
    model.Step(state, rng);
    for (int n = 1; n <= 64; ++n) {
      probe.NextU64();
      if (probe.state() == rng.state()) {
        return std::make_pair(n, state.index_scratch().size());
      }
    }
    return std::make_pair(-1, state.index_scratch().size());
  };
  EXPECT_EQ(draws(2), std::make_pair(1, std::size_t{0}));
  const auto [count_draws, count_scratch] = draws(32);
  EXPECT_GE(count_draws, 1);
  EXPECT_LE(count_draws, 31);
  EXPECT_EQ(count_scratch, 0u);
  EXPECT_EQ(draws(40), std::make_pair(32, std::size_t{32}));
}

TEST(CPosModelTest, FortyMinersOnThirtyTwoSlotsRunTheSlotPath) {
  // m = 40 > P = 32 (the path EpochPathIsPickedByMinersVersusSlots pins):
  // a whole game conserves rewards and stakes, and the slot counts of one
  // v = 0 epoch still sum to P.
  CPosModel model(0.01, 0.1, 32);
  StakeState state(Table1Split(40));
  RngStream rng(12);
  model.RunSteps(state, state.step(), 200, rng);
  EXPECT_NEAR(state.total_income(), 0.11 * 200, 1e-9);
  double stake_sum = 0.0;
  for (std::size_t i = 0; i < 40; ++i) stake_sum += state.stake(i);
  EXPECT_NEAR(stake_sum, state.total_stake(), 1e-9);

  const CPosModel slots_only(1.0, 0.0, 32);
  StakeState epoch(Table1Split(40));
  slots_only.Step(epoch, rng);
  std::uint64_t total = 0;
  for (const std::uint64_t count : SlotCounts(epoch, 32)) total += count;
  EXPECT_EQ(total, 32u);
}

TEST(CPosModelTest, ExpectationalFairness) {
  // Theorem 3.5.
  CPosModel model(0.01, 0.1, 32);
  RunningStats lambda_stats;
  const RngStream master(4);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    StakeState state({0.2, 0.8});
    RngStream rng = master.Split(rep);
    model.RunSteps(state, state.step(), 200, rng);
    lambda_stats.Add(state.RewardFraction(0));
  }
  EXPECT_NEAR(lambda_stats.Mean(), 0.2, 4.0 * lambda_stats.StdError());
}

TEST(CPosModelTest, InflationShrinksLambdaVariance) {
  // Theorem 4.10's mechanism: larger v => tighter lambda distribution.
  auto run_variance = [](double v) {
    CPosModel model(0.01, v, 32);
    RunningStats stats;
    const RngStream master(5);
    for (std::uint64_t rep = 0; rep < 1500; ++rep) {
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunSteps(state, state.step(), 500, rng);
      stats.Add(state.RewardFraction(0));
    }
    return stats.Variance();
  };
  const double var_v0 = run_variance(0.0);
  const double var_v01 = run_variance(0.1);
  EXPECT_LT(var_v01, var_v0 / 5.0);
}

TEST(CPosModelTest, MoreShardsShrinkVariance) {
  auto run_variance = [](std::uint32_t shards) {
    CPosModel model(0.05, 0.0, shards);
    RunningStats stats;
    const RngStream master(6);
    for (std::uint64_t rep = 0; rep < 1500; ++rep) {
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunSteps(state, state.step(), 300, rng);
      stats.Add(state.RewardFraction(0));
    }
    return stats.Variance();
  };
  EXPECT_LT(run_variance(32), run_variance(1));
}

TEST(CPosModelTest, DegeneratesToMlPosWithOneShardNoInflation) {
  // v = 0, P = 1 should reproduce the ML-PoS distribution (Theorem 4.10
  // remark).  Compare means and variances of final lambda.
  const double w = 0.05;
  RunningStats cpos_stats, mlpos_stats;
  const RngStream master(7);
  for (std::uint64_t rep = 0; rep < 3000; ++rep) {
    {
      CPosModel model(w, 0.0, 1);
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep);
      model.RunSteps(state, state.step(), 500, rng);
      cpos_stats.Add(state.RewardFraction(0));
    }
    {
      MlPosModel model(w);
      StakeState state({0.2, 0.8});
      RngStream rng = master.Split(rep + 1000000);
      model.RunSteps(state, state.step(), 500, rng);
      mlpos_stats.Add(state.RewardFraction(0));
    }
  }
  EXPECT_NEAR(cpos_stats.Mean(), mlpos_stats.Mean(), 0.01);
  EXPECT_NEAR(cpos_stats.Variance(), mlpos_stats.Variance(),
              0.35 * mlpos_stats.Variance());
}

TEST(CPosModelTest, MultiMinerConservation) {
  CPosModel model(0.01, 0.1, 32);
  StakeState state({0.1, 0.2, 0.3, 0.4});
  RngStream rng(8);
  model.RunSteps(state, state.step(), 100, rng);
  EXPECT_NEAR(state.total_income(), 0.11 * 100, 1e-9);
  double stake_sum = 0.0;
  for (std::size_t i = 0; i < 4; ++i) stake_sum += state.stake(i);
  EXPECT_NEAR(stake_sum, state.total_stake(), 1e-9);
  EXPECT_NEAR(state.total_stake(), 1.0 + 0.11 * 100, 1e-9);
}

TEST(CPosModelTest, WinProbabilityIsShare) {
  CPosModel model(0.01, 0.1, 32);
  StakeState state({0.2, 0.8});
  EXPECT_DOUBLE_EQ(model.WinProbability(state, 0), 0.2);
}

}  // namespace
}  // namespace fairchain::protocol
