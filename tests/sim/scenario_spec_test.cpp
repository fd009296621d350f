// Tests for the declarative scenario spec: parsing, validation, grid
// expansion, flag overrides, and text round-tripping.

#include "sim/scenario_spec.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "protocol/c_pos.hpp"

namespace fairchain::sim {
namespace {

TEST(ScenarioSpecTest, DefaultsAreValidSingleCell) {
  ScenarioSpec spec;
  EXPECT_NO_THROW(spec.Validate());
  EXPECT_EQ(spec.CellCount(), 1u);
  const auto cells = spec.ExpandCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].protocol, "mlpos");
  EXPECT_DOUBLE_EQ(cells[0].a, 0.2);
}

TEST(ScenarioSpecTest, FromTextParsesListsAndScalars) {
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "# a comment\n"
      "name=demo\n"
      "description=two protocols, two allocations\n"
      "protocols=pow, slpos\n"
      "a=0.1, 0.3\n"
      "steps=1234\n"
      "reps=77\n"
      "seed=9\n"
      "spacing=log\n"
      "eps=0.2\n"
      "delta=0.05\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.protocols, (std::vector<std::string>{"pow", "slpos"}));
  EXPECT_EQ(spec.allocations, (std::vector<double>{0.1, 0.3}));
  EXPECT_EQ(spec.steps, 1234u);
  EXPECT_EQ(spec.replications, 77u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.spacing, CheckpointSpacing::kLog);
  EXPECT_DOUBLE_EQ(spec.fairness.epsilon, 0.2);
  EXPECT_DOUBLE_EQ(spec.fairness.delta, 0.05);
  EXPECT_EQ(spec.CellCount(), 4u);
}

TEST(ScenarioSpecTest, FromTextRejectsUnknownKeys) {
  EXPECT_THROW(ScenarioSpec::FromText("repz=100\n"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText("not an assignment\n"),
               std::invalid_argument);
}

TEST(ScenarioSpecTest, FromTextRejectsMalformedValues) {
  EXPECT_THROW(ScenarioSpec::FromText("a=zebra\n"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText("steps=12x\n"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText("spacing=cubic\n"),
               std::invalid_argument);
}

TEST(ScenarioSpecTest, ValidateRejectsBadAxes) {
  ScenarioSpec spec;
  spec.protocols = {"nosuch"};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = ScenarioSpec();
  spec.allocations = {1.5};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = ScenarioSpec();
  spec.miner_counts = {1};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = ScenarioSpec();
  spec.whale_counts = {2};  // >= miner count of 2
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = ScenarioSpec();
  spec.replications = 0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, ExpandCellsIsRowMajorWithProtocolSlowest) {
  ScenarioSpec spec;
  spec.protocols = {"pow", "mlpos"};
  spec.allocations = {0.1, 0.2};
  const auto cells = spec.ExpandCells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].protocol, "pow");
  EXPECT_DOUBLE_EQ(cells[0].a, 0.1);
  EXPECT_EQ(cells[1].protocol, "pow");
  EXPECT_DOUBLE_EQ(cells[1].a, 0.2);
  EXPECT_EQ(cells[2].protocol, "mlpos");
  EXPECT_DOUBLE_EQ(cells[2].a, 0.1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(ScenarioSpecTest, CellStakesSplitWhalesAndMinnows) {
  CampaignCell cell;
  cell.miners = 10;
  cell.whales = 2;
  cell.a = 0.4;
  const auto stakes = cell.Stakes();
  ASSERT_EQ(stakes.size(), 10u);
  EXPECT_DOUBLE_EQ(stakes[0], 0.2);
  EXPECT_DOUBLE_EQ(stakes[1], 0.2);
  double total = 0.0;
  for (const double s : stakes) total += s;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(stakes[2], 0.6 / 8.0);
}

TEST(ScenarioSpecTest, ValidateRejectsNamesThatWouldCorruptSinks) {
  ScenarioSpec spec;
  for (const char* name : {"bad,name", "bad\"name", "bad name", "{}"}) {
    spec.name = name;
    EXPECT_THROW(spec.Validate(), std::invalid_argument) << name;
  }
  spec.name = "ok-name_2.0";
  EXPECT_NO_THROW(spec.Validate());
}

TEST(ScenarioSpecTest, FromFileRejectsMissingAndEmptyFiles) {
  EXPECT_THROW(ScenarioSpec::FromFile("/nonexistent/path.spec"),
               std::runtime_error);
  // A directory opens but reads as empty — must not silently become the
  // all-defaults campaign.
  EXPECT_THROW(ScenarioSpec::FromFile("/tmp"), std::runtime_error);
  const std::string path = "scenario_spec_test_empty.spec";
  { std::ofstream(path) << "   \n# only a comment\n"; }
  EXPECT_THROW(ScenarioSpec::FromFile(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ScenarioSpecTest, ApplyOverridesReplacesAxesAndScalars) {
  ScenarioSpec spec;
  const FlagSet flags = FlagSet::Parse(
      {"--reps", "200", "--protocols", "pow,cpos", "--a", "0.1,0.2,0.3"});
  spec.ApplyOverrides(flags);
  EXPECT_EQ(spec.replications, 200u);
  EXPECT_EQ(spec.protocols, (std::vector<std::string>{"pow", "cpos"}));
  EXPECT_EQ(spec.allocations.size(), 3u);
  EXPECT_NO_THROW(spec.Validate());
}

TEST(ScenarioSpecTest, ToTextRoundTripsFullDoublePrecision) {
  ScenarioSpec spec;
  spec.allocations = {0.123456789012345, 1.0 / 3.0};
  spec.fairness.epsilon = 0.123456789;
  const ScenarioSpec parsed = ScenarioSpec::FromText(spec.ToText());
  EXPECT_EQ(parsed.allocations, spec.allocations);  // bitwise, not near
  EXPECT_EQ(parsed.fairness.epsilon, spec.fairness.epsilon);
}

TEST(ScenarioSpecTest, ValuesMayContainHashOnlyWholeLineComments) {
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "# leading comment\n"
      "description=sweep #2 of the grid\n");
  EXPECT_EQ(spec.description, "sweep #2 of the grid");
}

TEST(ScenarioSpecTest, ToTextRoundTrips) {
  ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.description = "round trip me";
  spec.protocols = {"slpos", "fslpos"};
  spec.allocations = {0.25, 0.4};
  spec.rewards = {0.001};
  spec.miner_counts = {2, 5};
  spec.withhold_periods = {0, 500};
  spec.steps = 2500;
  spec.replications = 123;
  spec.spacing = CheckpointSpacing::kLog;
  const ScenarioSpec parsed = ScenarioSpec::FromText(spec.ToText());
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.description, spec.description);
  EXPECT_EQ(parsed.protocols, spec.protocols);
  EXPECT_EQ(parsed.allocations, spec.allocations);
  EXPECT_EQ(parsed.rewards, spec.rewards);
  EXPECT_EQ(parsed.miner_counts, spec.miner_counts);
  EXPECT_EQ(parsed.withhold_periods, spec.withhold_periods);
  EXPECT_EQ(parsed.steps, spec.steps);
  EXPECT_EQ(parsed.replications, spec.replications);
  EXPECT_EQ(parsed.spacing, spec.spacing);
  EXPECT_EQ(parsed.CellCount(), spec.CellCount());
}

// --- stake distributions -----------------------------------------------------

TEST(StakeDistributionTest, ParsesAllForms) {
  EXPECT_EQ(ParseStakeDistribution("split").kind,
            StakeDistribution::Kind::kSplit);
  const StakeDistribution pareto = ParseStakeDistribution("pareto:1.16");
  EXPECT_EQ(pareto.kind, StakeDistribution::Kind::kPareto);
  EXPECT_DOUBLE_EQ(pareto.parameter, 1.16);
  const StakeDistribution zipf = ParseStakeDistribution("zipf:0.8");
  EXPECT_EQ(zipf.kind, StakeDistribution::Kind::kZipf);
  EXPECT_DOUBLE_EQ(zipf.parameter, 0.8);
}

TEST(StakeDistributionTest, RejectsMalformedTokens) {
  EXPECT_THROW(ParseStakeDistribution("pareto"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution("pareto:"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution("pareto:0"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution("pareto:-1"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution("zipf:-0.1"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution("zipf:abc"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution("uniform"), std::invalid_argument);
  EXPECT_THROW(ParseStakeDistribution(""), std::invalid_argument);
}

TEST(StakeDistributionTest, ParetoStakesAreDescendingNormalisedHeavyTailed) {
  CampaignCell cell;
  cell.miners = 1000;
  cell.stake_dist = "pareto:1.16";
  const std::vector<double> stakes = cell.Stakes();
  ASSERT_EQ(stakes.size(), 1000u);
  double total = 0.0;
  for (std::size_t i = 0; i < stakes.size(); ++i) {
    EXPECT_GT(stakes[i], 0.0);
    if (i > 0) {
      EXPECT_LT(stakes[i], stakes[i - 1]);  // richest first
    }
    total += stakes[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Heavy tail: the tracked (richest) miner holds far more than 1/m.
  EXPECT_GT(stakes[0], 50.0 / 1000.0);
}

TEST(StakeDistributionTest, ZipfStakesFollowPowerLawRanks) {
  CampaignCell cell;
  cell.miners = 4;
  cell.stake_dist = "zipf:1";
  const std::vector<double> stakes = cell.Stakes();
  const double h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
  ASSERT_EQ(stakes.size(), 4u);
  EXPECT_NEAR(stakes[0], 1.0 / h4, 1e-12);
  EXPECT_NEAR(stakes[1], 0.5 / h4, 1e-12);
  EXPECT_NEAR(stakes[3], 0.25 / h4, 1e-12);
}

TEST(StakeDistributionTest, StakesAreDeterministic) {
  CampaignCell cell;
  cell.miners = 100;
  cell.stake_dist = "pareto:2";
  EXPECT_EQ(cell.Stakes(), cell.Stakes());
}

TEST(ScenarioSpecTest, StakesAxisExpandsAsFastestVaryingAxis) {
  ScenarioSpec spec;
  spec.protocols = {"pow", "mlpos"};
  spec.stake_dists = {"split", "pareto:1.16"};
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].protocol, "pow");
  EXPECT_EQ(cells[0].stake_dist, "split");
  EXPECT_EQ(cells[1].protocol, "pow");
  EXPECT_EQ(cells[1].stake_dist, "pareto:1.16");
  EXPECT_EQ(cells[2].protocol, "mlpos");
  EXPECT_EQ(cells[2].stake_dist, "split");
}

TEST(ScenarioSpecTest, StakesAndPopulationRoundTripThroughText) {
  ScenarioSpec spec;
  spec.name = "dist-roundtrip";
  spec.stake_dists = {"pareto:1.16", "zipf:1", "split"};
  spec.population_metrics = false;
  const ScenarioSpec parsed = ScenarioSpec::FromText(spec.ToText());
  EXPECT_EQ(parsed.stake_dists, spec.stake_dists);
  EXPECT_EQ(parsed.population_metrics, spec.population_metrics);
  EXPECT_EQ(parsed.CellCount(), spec.CellCount());
}

TEST(ScenarioSpecTest, StakesAndPopulationApplyAsOverrides) {
  ScenarioSpec spec;
  const FlagSet flags = FlagSet::Parse(
      {"--stakes", "zipf:0.5,split", "--population", "off"});
  spec.ApplyOverrides(flags);
  EXPECT_EQ(spec.stake_dists,
            (std::vector<std::string>{"zipf:0.5", "split"}));
  EXPECT_FALSE(spec.population_metrics);
  EXPECT_NO_THROW(spec.Validate());
}

TEST(ScenarioSpecTest, InvalidStakesOrPopulationValuesThrow) {
  EXPECT_THROW(ScenarioSpec::FromText("stakes=pareto:-3\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText("population=maybe\n"),
               std::invalid_argument);
  ScenarioSpec spec;
  spec.stake_dists = {"gauss:1"};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(StakeDistributionTest, DegenerateParametersFailOnTheExpandingThread) {
  // pow((i+0.5)/m, -1/alpha) overflows to inf for tiny alpha; after
  // normalisation the stakes are NaN.  Stakes() must throw here — on the
  // thread that expands the cell, before any chunk is dispatched (the old
  // behaviour was std::terminate inside a pool worker).
  CampaignCell cell;
  cell.miners = 100;
  cell.stake_dist = "pareto:0.001";
  EXPECT_THROW(cell.Stakes(), std::invalid_argument);
  cell.stake_dist = "zipf:5000";  // (i+1)^-5000 underflows all but rank 0
  EXPECT_NO_THROW(cell.Stakes());  // underflow to 0 is fine: rank 0 wins
}

TEST(ScenarioSpecTest, FinalLambdasKeyParsesRoundTripsAndOverrides) {
  EXPECT_TRUE(ScenarioSpec().keep_final_lambdas);  // default stays on
  ScenarioSpec spec = ScenarioSpec::FromText("final_lambdas=off\n");
  EXPECT_FALSE(spec.keep_final_lambdas);
  const ScenarioSpec parsed = ScenarioSpec::FromText(spec.ToText());
  EXPECT_FALSE(parsed.keep_final_lambdas);

  ScenarioSpec overridden;
  overridden.ApplyOverrides(
      FlagSet::Parse({"--final_lambdas", "off"}));
  EXPECT_FALSE(overridden.keep_final_lambdas);

  EXPECT_THROW(ScenarioSpec::FromText("final_lambdas=sometimes\n"),
               std::invalid_argument);
}

// --- error paths: every failure names the problem actionably ----------------

// Captures the exception message of a parse/validate failure.
template <typename Fn>
std::string FailureMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

TEST(ScenarioSpecTest, DuplicateKeysAreRejectedNamingBothLines) {
  const std::string message = FailureMessage([] {
    ScenarioSpec::FromText("steps=100\nreps=50\nreps=200\n");
  });
  EXPECT_NE(message.find("duplicate key 'reps'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
}

TEST(ScenarioSpecTest, MalformedAssignmentNamesLineAndContent) {
  const std::string message = FailureMessage([] {
    ScenarioSpec::FromText("steps=100\nthis is not an assignment\n");
  });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("not an assignment"), std::string::npos) << message;
}

TEST(ScenarioSpecTest, MalformedNumberNamesKeyAndValue) {
  const std::string message =
      FailureMessage([] { ScenarioSpec::FromText("steps=soon\n"); });
  EXPECT_NE(message.find("steps"), std::string::npos) << message;
  EXPECT_NE(message.find("'soon'"), std::string::npos) << message;
}

TEST(ScenarioSpecTest, OutOfRangeStakesNameTheConstraint) {
  ScenarioSpec spec;
  spec.allocations = {1.5};
  const std::string message = FailureMessage([&] { spec.Validate(); });
  EXPECT_NE(message.find("every a must lie in (0, 1)"), std::string::npos)
      << message;
  spec.allocations = {0.0};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.allocations = {-0.2};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

TEST(ScenarioSpecTest, UnknownProtocolNamesTheOffender) {
  const std::string message = FailureMessage([] {
    ScenarioSpec::FromText("protocols=mlpos,btc\n").Validate();
  });
  EXPECT_NE(message.find("unknown protocol 'btc'"), std::string::npos)
      << message;
}

TEST(ScenarioSpecTest, UnknownKeyNamesTheKey) {
  const std::string message =
      FailureMessage([] { ScenarioSpec::FromText("stepz=100\n"); });
  EXPECT_NE(message.find("unknown key 'stepz'"), std::string::npos)
      << message;
}

TEST(ScenarioSpecTest, MatrixProductOverflowIsRejectedWithTheProduct) {
  ScenarioSpec spec;
  spec.ApplyOverrides(FlagSet::Parse({"--reps", "18446744073709551615"}));
  const std::string message = FailureMessage([&] { spec.Validate(); });
  EXPECT_NE(message.find("50 checkpoints x 18446744073709551615 reps x 5 "
                         "planes x 8 bytes overflow 64 bits"),
            std::string::npos)
      << message;
}

TEST(ScenarioSpecTest, MatrixAboveTheCellLimitIsRejectedWithTheProduct) {
  ScenarioSpec spec;
  spec.ApplyOverrides(FlagSet::Parse({"--reps", "4000000000000"}));
  const std::string message = FailureMessage([&] { spec.Validate(); });
  EXPECT_NE(message.find("50 checkpoints x 4000000000000 reps x 5 planes x 8 "
                         "bytes = 8000000000000000 bytes exceed the " +
                         std::to_string(kMaxCellMatrixBytes) +
                         "-byte per-cell limit"),
            std::string::npos)
      << message;
  // The bound scales with the planes actually recorded: without population
  // metrics the same spec needs a fifth of the bytes.
  spec.replications = kMaxCellMatrixBytes / (50 * 8);
  spec.population_metrics = false;
  EXPECT_NO_THROW(spec.Validate());
  spec.population_metrics = true;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
}

// `shards` is parsed at u64 width and stored as uint32_t: every value over
// kMaxShards must fail at parse time with the value and the cap, never
// wrap (2^32 + 1 -> 1, 2^32 -> 0) or reach the kernel (3e9 slots).
void ExpectShardsRejected(const std::string& value) {
  const std::string cap = std::to_string(protocol::kMaxShards);
  for (const bool from_flags : {false, true}) {
    const std::string message = FailureMessage([&] {
      if (from_flags) {
        ScenarioSpec spec;
        spec.ApplyOverrides(FlagSet::Parse({"--shards", value}));
        spec.Validate();
      } else {
        ScenarioSpec::FromText("shards=" + value + "\n").Validate();
      }
    });
    EXPECT_NE(message.find("shards=" + value), std::string::npos) << message;
    EXPECT_NE(message.find(cap), std::string::npos) << message;
  }
}

TEST(ScenarioSpecTest, ShardsThatWrapToOneAreRejected) {
  ExpectShardsRejected("4294967297");
}

TEST(ScenarioSpecTest, ShardsThatWrapToZeroNameTheCap) {
  ExpectShardsRejected("4294967296");
}

TEST(ScenarioSpecTest, ShardsThatFitUint32ButExceedTheCapAreRejected) {
  ExpectShardsRejected("3000000000");
  ExpectShardsRejected(std::to_string(protocol::kMaxShards + 1));
}

TEST(ScenarioSpecTest, ShardCapBoundsValidateAndAdmitsTheCap) {
  ScenarioSpec spec;
  spec.shard_counts = {1, static_cast<std::uint32_t>(protocol::kMaxShards)};
  EXPECT_NO_THROW(spec.Validate());
  EXPECT_EQ(ScenarioSpec::FromText(spec.ToText()).shard_counts,
            spec.shard_counts);
  spec.shard_counts = {static_cast<std::uint32_t>(protocol::kMaxShards + 1)};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  spec.shard_counts = {0};
  EXPECT_NE(FailureMessage([&] { spec.Validate(); }).find("shards=0"),
            std::string::npos);
}

// w and v pass through the models' own predicates: an infinite reward
// would otherwise run and print NaN λ, and a NaN v would pass a `v < 0`
// test.
TEST(ScenarioSpecTest, NonFiniteRewardsAreRejectedWithTheKey) {
  for (const std::string line : {"w=inf", "w=nan", "w=0.01,inf"}) {
    const std::string message = FailureMessage(
        [&] { ScenarioSpec::FromText(line + "\n").Validate(); });
    EXPECT_NE(message.find("ScenarioSpec: w must be finite"),
              std::string::npos)
        << line << ": " << message;
  }
  for (const std::string line : {"v=inf", "v=nan", "v=-0.1"}) {
    const std::string message = FailureMessage(
        [&] { ScenarioSpec::FromText(line + "\n").Validate(); });
    EXPECT_NE(message.find("ScenarioSpec: v must be finite"),
              std::string::npos)
        << line << ": " << message;
  }
  ScenarioSpec spec;
  spec.ApplyOverrides(FlagSet::Parse({"--w", "inf"}));
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  EXPECT_NO_THROW(ScenarioSpec::FromText("w=0.5\nv=0\n").Validate());
}

TEST(ScenarioSpecTest, OverridesMayRepeatKeysParsedFromText) {
  // Duplicate rejection is a FromText contract only: CLI overrides
  // legitimately re-assign keys that the spec text already set.
  ScenarioSpec spec = ScenarioSpec::FromText("reps=100\n");
  const FlagSet flags = FlagSet::Parse({"--reps", "250"});
  spec.ApplyOverrides(flags);
  EXPECT_EQ(spec.replications, 250u);
}

// --- chain-dynamics family ---------------------------------------------------

TEST(ScenarioSpecTest, ChainFamilyParsesExpandsAndRoundTrips) {
  ScenarioSpec spec = ScenarioSpec::FromText(
      "name=chain-grid\n"
      "description=chain family round trip\n"
      "family=chain\n"
      "protocols=selfish,forkrace\n"
      "a=0.3,0.45\n"
      "gamma=0,0.5\n"
      "delay=0,0.25\n"
      "steps=100\n"
      "reps=10\n");
  EXPECT_EQ(spec.family, ScenarioFamily::kChain);
  EXPECT_EQ(spec.CellCount(), 2u * 2u * 2u * 2u);
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  ASSERT_EQ(cells.size(), 16u);
  for (const CampaignCell& cell : cells) {
    EXPECT_TRUE(cell.chain_dynamics);
    EXPECT_EQ(cell.miners, 2u);
  }
  // delay is the fastest-varying axis, gamma the next.
  EXPECT_EQ(cells[0].delay, 0.0);
  EXPECT_EQ(cells[1].delay, 0.25);
  EXPECT_EQ(cells[0].gamma, 0.0);
  EXPECT_EQ(cells[2].gamma, 0.5);
  EXPECT_EQ(cells[0].protocol, "selfish");
  EXPECT_EQ(cells[8].protocol, "forkrace");

  const ScenarioSpec parsed = ScenarioSpec::FromText(spec.ToText());
  EXPECT_EQ(parsed.family, ScenarioFamily::kChain);
  EXPECT_EQ(parsed.gammas, spec.gammas);
  EXPECT_EQ(parsed.delays, spec.delays);
  EXPECT_EQ(parsed.CellCount(), spec.CellCount());
}

TEST(ScenarioSpecTest, IncentiveToTextOmitsChainKeys) {
  // The incentive family's serialised form must stay byte-compatible with
  // pre-chain readers: no family/gamma/delay lines appear.
  const ScenarioSpec spec;
  const std::string text = spec.ToText();
  EXPECT_EQ(text.find("family="), std::string::npos);
  EXPECT_EQ(text.find("gamma="), std::string::npos);
  EXPECT_EQ(text.find("delay="), std::string::npos);
}

TEST(ScenarioSpecTest, ChainFamilyValidationConstraints) {
  auto chain = [](const std::string& extra) {
    return "name=c\ndescription=d\nfamily=chain\nprotocols=selfish\n" +
           extra;
  };
  // Unknown dynamics name.
  EXPECT_THROW(ScenarioSpec::FromText(
                   "name=c\ndescription=d\nfamily=chain\nprotocols=pow\n")
                   .Validate(),
               std::invalid_argument);
  // Chain cells are strictly two-group games.
  EXPECT_THROW(ScenarioSpec::FromText(chain("miners=5\n")).Validate(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText(chain("withhold=100\n")).Validate(),
               std::invalid_argument);
  // Gamma out of range / delay negative.
  EXPECT_THROW(ScenarioSpec::FromText(chain("gamma=1.5\n")).Validate(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText(chain("delay=-0.5\n")).Validate(),
               std::invalid_argument);
  // The chain axes are meaningless for the incentive family and must be
  // rejected loudly rather than silently ignored.
  EXPECT_THROW(ScenarioSpec::FromText(
                   "name=c\ndescription=d\nprotocols=pow\ngamma=0.5\n")
                   .Validate(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText(
                   "name=c\ndescription=d\nprotocols=pow\ndelay=0.1\n")
                   .Validate(),
               std::invalid_argument);
  // A well-formed chain grid validates.
  EXPECT_NO_THROW(
      ScenarioSpec::FromText(chain("gamma=0,1\ndelay=0\n")).Validate());
}

// --- mixed family ------------------------------------------------------------

TEST(ScenarioSpecTest, MixedFamilyResolvesPhysicsPerCell) {
  ScenarioSpec spec = ScenarioSpec::FromText(
      "name=mixed\n"
      "description=incentive and chain cells in one campaign\n"
      "family=mixed\n"
      "protocols=cpos,pow,selfish\n"
      "a=0.33\n"
      "gamma=0.5\n"
      "delay=0.1\n"
      "steps=100\n"
      "reps=10\n");
  EXPECT_NO_THROW(spec.Validate());
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_FALSE(cells[0].chain_dynamics);  // cpos
  EXPECT_FALSE(cells[1].chain_dynamics);  // pow
  EXPECT_TRUE(cells[2].chain_dynamics);   // selfish
  // The chain axes only reach chain cells; incentive cells keep the zero
  // defaults so their store preimages match a pure incentive spec's.
  EXPECT_EQ(cells[0].gamma, 0.0);
  EXPECT_EQ(cells[0].delay, 0.0);
  EXPECT_EQ(cells[1].gamma, 0.0);
  EXPECT_EQ(cells[2].gamma, 0.5);
  EXPECT_EQ(cells[2].delay, 0.1);
}

TEST(ScenarioSpecTest, MixedFamilyRoundTripsThroughText) {
  const ScenarioSpec spec = ScenarioSpec::FromText(
      "name=mixed\ndescription=d\nfamily=mixed\n"
      "protocols=mlpos,forkrace\na=0.2\ngamma=0.25\ndelay=0.5\n");
  const std::string text = spec.ToText();
  EXPECT_NE(text.find("family=mixed"), std::string::npos);
  const ScenarioSpec parsed = ScenarioSpec::FromText(text);
  EXPECT_EQ(parsed.family, ScenarioFamily::kMixed);
  EXPECT_EQ(parsed.gammas, spec.gammas);
  EXPECT_EQ(parsed.delays, spec.delays);
  EXPECT_EQ(parsed.CellCount(), spec.CellCount());
}

TEST(ScenarioSpecTest, MixedFamilyValidationConstraints) {
  // Base omits gamma/delay (their {0} defaults validate) so each probe can
  // set them without tripping FromText's duplicate-key rejection.
  auto mixed = [](const std::string& extra) {
    return "name=m\ndescription=d\nfamily=mixed\nprotocols=pow,selfish\n" +
           extra;
  };
  EXPECT_NO_THROW(
      ScenarioSpec::FromText(mixed("gamma=0.5\ndelay=0\n")).Validate());
  // Every token must resolve in the incentive OR chain namespace.
  EXPECT_THROW(
      ScenarioSpec::FromText(
          "name=m\ndescription=d\nfamily=mixed\nprotocols=pow,nope\n")
          .Validate(),
      std::invalid_argument);
  // The chain cells keep the two-party restrictions, which the mixed
  // family therefore imposes on the whole grid.
  EXPECT_THROW(ScenarioSpec::FromText(mixed("miners=5\n")).Validate(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText(mixed("withhold=100\n")).Validate(),
               std::invalid_argument);
  // Chain axes stay singletons: a gamma sweep would multiply the incentive
  // cells by identical copies.
  EXPECT_THROW(ScenarioSpec::FromText(mixed("gamma=0.1,0.2\n")).Validate(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::FromText(mixed("delay=0,0.25\n")).Validate(),
               std::invalid_argument);
}

TEST(ScenarioSpecTest, ChainCellLabelNamesDynamicsAndAxes) {
  ScenarioSpec spec = ScenarioSpec::FromText(
      "name=c\ndescription=d\nfamily=chain\nprotocols=forkrace\n"
      "a=0.3\ngamma=0.5\ndelay=0.2\n");
  const std::vector<CampaignCell> cells = spec.ExpandCells();
  ASSERT_EQ(cells.size(), 1u);
  const std::string label = cells[0].Label();
  EXPECT_NE(label.find("forkrace"), std::string::npos) << label;
  EXPECT_NE(label.find("gamma"), std::string::npos) << label;
  EXPECT_NE(label.find("delay"), std::string::npos) << label;
}

}  // namespace
}  // namespace fairchain::sim
