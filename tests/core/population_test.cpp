// Tests for the population concentration metrics: closed-form cases,
// definitional ranges, degenerate inputs, and the state-driven meter's
// bit-identity with the sorting reference.

#include "core/population.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replication_workspace.hpp"
#include "protocol/c_pos.hpp"
#include "protocol/ml_pos.hpp"
#include "protocol/pow.hpp"
#include "protocol/sl_pos.hpp"
#include "support/rng.hpp"

namespace fairchain::core {
namespace {

PopulationSnapshot Measure(const std::vector<double>& wealth) {
  std::vector<double> scratch;
  return MeasurePopulation(wealth, &scratch);
}

TEST(PopulationTest, UniformPopulationIsPerfectlyEqual) {
  const PopulationSnapshot snapshot = Measure({1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(snapshot.gini, 0.0, 1e-12);
  EXPECT_NEAR(snapshot.hhi, 0.25, 1e-12);  // 1/m
  // Two of four equal miners are needed for a strict majority.
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 3.0);
  // Top decile of 4 miners = 1 miner = 1/4 of the wealth.
  EXPECT_NEAR(snapshot.top_decile_share, 0.25, 1e-12);
}

TEST(PopulationTest, NearMonopolyApproachesExtremes) {
  const PopulationSnapshot snapshot = Measure({0.001, 0.001, 0.001, 0.997});
  EXPECT_GT(snapshot.gini, 0.7);
  EXPECT_GT(snapshot.hhi, 0.99);
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 1.0);
  EXPECT_NEAR(snapshot.top_decile_share, 0.997, 1e-12);
}

TEST(PopulationTest, TwoMinerGiniClosedForm) {
  // For wealths {a, 1-a} with a < 1/2 the Gini coefficient is 1/2 - a.
  const PopulationSnapshot snapshot = Measure({0.2, 0.8});
  EXPECT_NEAR(snapshot.gini, 0.3, 1e-12);
  EXPECT_NEAR(snapshot.hhi, 0.04 + 0.64, 1e-12);
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 1.0);
}

TEST(PopulationTest, UnsortedInputIsHandled) {
  // The input need not be ordered; the metrics sort internally.
  const PopulationSnapshot ascending = Measure({1.0, 2.0, 3.0, 4.0});
  const PopulationSnapshot shuffled = Measure({3.0, 1.0, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(ascending.gini, shuffled.gini);
  EXPECT_DOUBLE_EQ(ascending.nakamoto, shuffled.nakamoto);
  EXPECT_DOUBLE_EQ(ascending.top_decile_share, shuffled.top_decile_share);
}

TEST(PopulationTest, NakamotoCountsSmallestMajorityCoalition) {
  // 40 + 15 > 50: two miners suffice; one (40) does not.
  const PopulationSnapshot snapshot = Measure({40.0, 15.0, 15.0, 15.0, 15.0});
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 2.0);
}

TEST(PopulationTest, TopDecileCountCeils) {
  EXPECT_EQ(TopDecileCount(1), 1u);
  EXPECT_EQ(TopDecileCount(9), 1u);
  EXPECT_EQ(TopDecileCount(10), 1u);
  EXPECT_EQ(TopDecileCount(11), 2u);
  EXPECT_EQ(TopDecileCount(100), 10u);
  EXPECT_EQ(TopDecileCount(101), 11u);
}

TEST(PopulationTest, SingleMinerIsDegenerateMonopoly) {
  const PopulationSnapshot snapshot = Measure({7.0});
  EXPECT_NEAR(snapshot.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(snapshot.hhi, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.nakamoto, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.top_decile_share, 1.0);
}

TEST(PopulationTest, RejectsInvalidInput) {
  std::vector<double> scratch;
  EXPECT_THROW(MeasurePopulation({}, &scratch), std::invalid_argument);
  EXPECT_THROW(MeasurePopulation({1.0, -0.5}, &scratch),
               std::invalid_argument);
  EXPECT_THROW(MeasurePopulation({0.0, 0.0}, &scratch),
               std::invalid_argument);
}

TEST(PopulationTest, RejectsNonFiniteWealthNamingItsIndex) {
  std::vector<double> scratch;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& wealth :
       {std::vector<double>{1.0, inf}, std::vector<double>{1.0, nan},
        std::vector<double>{2.0, -inf, 1.0}, std::vector<double>{nan}}) {
    const std::size_t bad = wealth.size() == 3 ? 1 : wealth.size() - 1;
    try {
      (void)MeasurePopulation(wealth, &scratch);
      ADD_FAILURE() << "non-finite wealth accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("wealth " + std::to_string(bad)),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("finite"), std::string::npos) << message;
    }
  }
}

TEST(PopulationTest, ScratchReuseDoesNotPerturbResults) {
  std::vector<double> scratch;
  const PopulationSnapshot first = MeasurePopulation({5.0, 1.0}, &scratch);
  (void)MeasurePopulation({1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, &scratch);
  const PopulationSnapshot again = MeasurePopulation({5.0, 1.0}, &scratch);
  EXPECT_DOUBLE_EQ(first.gini, again.gini);
  EXPECT_DOUBLE_EQ(first.hhi, again.hhi);
}

TEST(PopulationTest, ZipfPopulationConcentratesWithTail) {
  // A Zipf(1) population of 1000 miners: the top decile holds a strict
  // majority of the wealth and the Gini sits well inside (0, 1).
  std::vector<double> wealth(1000);
  for (std::size_t i = 0; i < wealth.size(); ++i) {
    wealth[i] = 1.0 / static_cast<double>(i + 1);
  }
  const PopulationSnapshot snapshot = Measure(wealth);
  EXPECT_GT(snapshot.gini, 0.5);
  EXPECT_LT(snapshot.gini, 1.0);
  EXPECT_GT(snapshot.top_decile_share, 0.5);
  EXPECT_GE(snapshot.nakamoto, 1.0);
  EXPECT_LE(snapshot.nakamoto, 1000.0);
}

// --- the state-driven meter -------------------------------------------------

// The reference: the sorting path over initial_stake(i) + income(i).
PopulationSnapshot Reference(const protocol::StakeState& state) {
  std::vector<double> wealth(state.miner_count());
  for (std::size_t i = 0; i < wealth.size(); ++i) {
    wealth[i] = state.initial_stake(i) + state.income(i);
  }
  return Measure(wealth);
}

void ExpectBitEqual(const PopulationSnapshot& expected,
                    const PopulationSnapshot& actual,
                    const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.gini),
            std::bit_cast<std::uint64_t>(actual.gini))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.hhi),
            std::bit_cast<std::uint64_t>(actual.hhi))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.nakamoto),
            std::bit_cast<std::uint64_t>(actual.nakamoto))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.top_decile_share),
            std::bit_cast<std::uint64_t>(actual.top_decile_share))
      << where;
}

enum class StakeShape { kDistinct, kTied, kWithZeros };

std::vector<double> Stakes(std::size_t m, StakeShape shape) {
  std::vector<double> stakes(m);
  for (std::size_t i = 0; i < m; ++i) {
    switch (shape) {
      case StakeShape::kDistinct:
        stakes[i] = 1.0 / static_cast<double>(i + 1);
        break;
      case StakeShape::kTied:  // three tiers of equal stakes
        stakes[i] = static_cast<double>(i % 3 + 1);
        break;
      case StakeShape::kWithZeros:  // every other miner holds nothing
        stakes[i] = i % 2 == 0 ? 0.5 + static_cast<double>(i % 5) : 0.0;
        break;
    }
  }
  return stakes;
}

struct GameCase {
  std::string name;
  std::shared_ptr<const protocol::IncentiveModel> model;
  std::uint64_t withhold;
};

std::vector<GameCase> Games() {
  return {
      {"PoW", std::make_shared<protocol::PowModel>(0.01), 0},
      {"ML-PoS", std::make_shared<protocol::MlPosModel>(0.01), 0},
      {"SL-PoS", std::make_shared<protocol::SlPosModel>(0.01), 0},
      {"C-PoS", std::make_shared<protocol::CPosModel>(0.01, 0.1, 32), 0},
      {"ML-PoS withhold", std::make_shared<protocol::MlPosModel>(0.01), 7},
  };
}

// Every checkpoint of two seeded replications (with a Reset between), from
// the fresh state (no miner credited) until every miner that can win has.
TEST(PopulationMeterTest, BitEqualToSortingReferenceAtEveryCheckpoint) {
  const std::vector<std::uint64_t> checkpoints = {1, 2, 3, 5, 10, 30, 80};
  for (const GameCase& game : Games()) {
    for (const std::size_t m : {1, 2, 10, 1000}) {
      // SL-PoS recomputes an O(m) win-probability vector every step.
      const std::uint64_t horizon =
          game.name == "SL-PoS" && m == 1000 ? 10 : checkpoints.back();
      for (const StakeShape shape :
           {StakeShape::kDistinct, StakeShape::kTied,
            StakeShape::kWithZeros}) {
        const std::vector<double> stakes = Stakes(m, shape);
        protocol::StakeState state(stakes, game.withhold);
        PopulationMeter meter(state);
        const RngStream master(2021 + m);
        for (std::uint64_t rep = 0; rep < 2; ++rep) {
          state.Reset();
          RngStream rng = master.Split(rep);
          const std::string where =
              game.name + " m=" + std::to_string(m) +
              " shape=" + std::to_string(static_cast<int>(shape)) +
              " rep=" + std::to_string(rep);
          ExpectBitEqual(Reference(state), meter.Measure(state),
                         where + " step=0");
          std::uint64_t done = 0;
          for (const std::uint64_t cp : checkpoints) {
            if (cp > horizon) break;
            game.model->RunSteps(state, done, cp - done, rng);
            done = cp;
            ExpectBitEqual(Reference(state), meter.Measure(state),
                           where + " step=" + std::to_string(cp));
          }
        }
      }
    }
  }
}

TEST(PopulationMeterTest, WorkspaceMeterFollowsRebinds) {
  const protocol::MlPosModel model(0.05);
  const std::vector<double> first = Stakes(10, StakeShape::kTied);
  const std::vector<double> second = Stakes(1000, StakeShape::kWithZeros);
  const std::vector<double> third = {0.3, 0.2, 0.5};
  ReplicationWorkspace workspace;
  RngStream rng(99);
  for (const std::vector<double>* stakes :
       {&first, &second, &first, &third, &third}) {
    workspace.Bind(*stakes, 0);
    protocol::StakeState& state = workspace.state();
    state.Reset();
    model.RunSteps(state, 0, 40, rng);
    ExpectBitEqual(Reference(state),
                   workspace.population_meter().Measure(state),
                   "m=" + std::to_string(stakes->size()));
  }
}

TEST(PopulationMeterTest, RejectsMismatchAndOverflowedWealth) {
  const protocol::StakeState two({1.0, 2.0});
  const protocol::StakeState three({1.0, 2.0, 3.0});
  PopulationMeter meter(two);
  EXPECT_THROW((void)meter.Measure(three), std::invalid_argument);

  const double huge = std::numeric_limits<double>::max();
  protocol::StakeState state({1.0, 2.0, 3.0});
  PopulationMeter overflow(state);
  state.Credit(1, huge, /*compounds=*/false);
  state.Credit(1, huge, /*compounds=*/false);  // income overflows to +inf
  try {
    (void)overflow.Measure(state);
    ADD_FAILURE() << "infinite wealth accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("wealth 1"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace fairchain::core
