// Campaign store: content-address stability, the result codec's bit-exact
// round trip, hit/miss/corrupt/version-mismatch accounting, and the
// write-temp-then-rename commit discipline.  The integration-level
// crash/resume proofs live in tests/integration/shard_fault_test.cpp;
// these are the unit properties they stand on.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenario_spec.hpp"
#include "store/campaign_store.hpp"
#include "store/result_codec.hpp"

namespace fairchain::store {
namespace {

namespace fs = std::filesystem;

// A result exercising every codec field with adversarial doubles: NaN,
// infinities, negative zero, denormals — all must survive bit-exactly.
core::SimulationResult SampleResult() {
  core::SimulationResult result;
  result.protocol = "mlpos";
  result.initial_share = 0.2;
  result.spec.epsilon = 0.1;
  result.spec.delta = std::numeric_limits<double>::denorm_min();
  result.config.steps = 5000;
  result.config.replications = 3;
  result.config.seed = 20210620;
  result.config.checkpoints = {100, 2500, 5000};
  result.config.withhold_period = 50;
  result.config.miner = 1;
  result.config.population_metrics = true;
  result.config.keep_final_lambdas = true;
  for (std::uint64_t step : result.config.checkpoints) {
    core::CheckpointStats stats;
    stats.step = step;
    stats.mean = 0.1 * static_cast<double>(step);
    stats.std_dev = -0.0;
    stats.p05 = std::numeric_limits<double>::quiet_NaN();
    stats.p95 = std::numeric_limits<double>::infinity();
    stats.min = -std::numeric_limits<double>::infinity();
    stats.gini = 0.42;
    result.checkpoints.push_back(stats);
  }
  result.final_lambdas = {0.25, -0.0,
                          std::numeric_limits<double>::denorm_min()};
  return result;
}

TEST(ResultCodecTest, RoundTripIsBitExact) {
  const core::SimulationResult original = SampleResult();
  const std::string encoded = EncodeSimulationResult(original);
  const core::SimulationResult decoded = DecodeSimulationResult(encoded);
  // Bit-exactness in one comparison: re-encoding the decoded result must
  // reproduce the exact byte string (covers NaN payloads and -0.0, which
  // operator== would miss).
  EXPECT_EQ(EncodeSimulationResult(decoded), encoded);
  EXPECT_EQ(decoded.protocol, "mlpos");
  EXPECT_EQ(decoded.config.checkpoints, original.config.checkpoints);
  EXPECT_TRUE(std::isnan(decoded.checkpoints[0].p05));
  EXPECT_TRUE(std::signbit(decoded.final_lambdas[1]));
}

TEST(ResultCodecTest, EveryTruncationIsRejected) {
  const std::string encoded = EncodeSimulationResult(SampleResult());
  for (std::size_t length = 0; length < encoded.size(); ++length) {
    EXPECT_THROW(DecodeSimulationResult(encoded.substr(0, length)),
                 std::runtime_error)
        << "prefix of " << length << " bytes decoded";
  }
}

TEST(ResultCodecTest, TrailingBytesAreRejected) {
  std::string encoded = EncodeSimulationResult(SampleResult());
  encoded.push_back('\0');
  EXPECT_THROW(DecodeSimulationResult(encoded), std::runtime_error);
}

TEST(ResultCodecTest, AbsurdVectorLengthIsRejectedFast) {
  // A corrupt length field must throw, not attempt a multi-exabyte resize.
  std::string bytes;
  for (int i = 0; i < 8; ++i) bytes.push_back('\xFF');  // protocol length
  EXPECT_THROW(DecodeSimulationResult(bytes), std::runtime_error);
}

// A payload whose vectors are empty, with `count` patched into the length
// field `fields_from_end` u64s before its end (1 = final λs, 2 =
// checkpoint stats).
std::string PayloadClaiming(std::uint64_t count, int fields_from_end) {
  core::SimulationResult result = SampleResult();
  result.config.checkpoints.clear();
  result.checkpoints.clear();
  result.final_lambdas.clear();
  std::string bytes = EncodeSimulationResult(result);
  const std::size_t offset = bytes.size() - 8 * fields_from_end;
  for (int i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>((count >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST(ResultCodecTest, CheckpointCountBeyondPayloadIsRejectedBeforeReserving) {
  // 2^30 claimed checkpoint-stats records would reserve ~154 GB; the
  // count must be checked against the bytes present (144 B per record)
  // and rejected as a malformed payload, not as std::bad_alloc.
  EXPECT_THROW(DecodeSimulationResult(PayloadClaiming(1ULL << 30, 2)),
               std::runtime_error);
  // One record more than the 8 bytes left can hold is rejected too.
  EXPECT_THROW(DecodeSimulationResult(PayloadClaiming(1, 2)),
               std::runtime_error);
}

TEST(ResultCodecTest, FinalLambdaCountBeyondPayloadIsRejectedBeforeReserving) {
  EXPECT_THROW(DecodeSimulationResult(PayloadClaiming(1ULL << 30, 1)),
               std::runtime_error);
  EXPECT_THROW(DecodeSimulationResult(PayloadClaiming(1, 1)),
               std::runtime_error);
}

TEST(CellKeyTest, PinnedDigestNeverDrifts) {
  // Golden content address: if this changes, every existing store on disk
  // silently stops matching — treat a failure here as a schema break and
  // bump kStoreSchemaRevision.
  EXPECT_EQ(
      MakeCellKey("fairchain-key-pin\n").Hex(),
      "917d0c6aab578e8d71ee8454c9cdfbf0407b71ee9da02f27b518bac9c87d213c");
}

TEST(CellKeyTest, KeyIsStableAndContentSensitive) {
  const CellKey a = MakeCellKey("same preimage");
  const CellKey b = MakeCellKey("same preimage");
  const CellKey c = MakeCellKey("same preimagE");
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_NE(a.Hex(), c.Hex());
  EXPECT_EQ(a.Hex().size(), 64u);
  EXPECT_EQ(a.preimage, "same preimage");
}

TEST(CellPreimageTest, CoversResultDeterminantsAndNothingElse) {
  sim::ScenarioSpec spec = sim::ScenarioSpec::FromText(
      "name=one\nprotocols=pow,mlpos\na=0.2,0.4\nsteps=100\nreps=8\n");
  const auto cells = spec.ExpandCells();
  const std::string base = sim::CellStorePreimage(spec, cells[0]);
  EXPECT_EQ(sim::CellStorePreimage(spec, cells[0]), base);  // deterministic
  EXPECT_NE(sim::CellStorePreimage(spec, cells[1]), base);  // cell-sensitive

  // The scenario name is presentation, not physics: renaming the spec must
  // not invalidate the cache.
  sim::ScenarioSpec renamed = spec;
  renamed.name = "two";
  EXPECT_EQ(sim::CellStorePreimage(renamed, cells[0]), base);

  // Every simulated-result determinant must change the preimage.
  sim::ScenarioSpec reseeded = spec;
  reseeded.seed += 1;
  EXPECT_NE(sim::CellStorePreimage(reseeded, reseeded.ExpandCells()[0]),
            base);
  sim::ScenarioSpec longer = spec;
  longer.steps += 1;
  EXPECT_NE(sim::CellStorePreimage(longer, longer.ExpandCells()[0]), base);
  sim::ScenarioSpec more_reps = spec;
  more_reps.replications += 1;
  EXPECT_NE(sim::CellStorePreimage(more_reps, more_reps.ExpandCells()[0]),
            base);
  sim::ScenarioSpec tighter = spec;
  tighter.fairness.epsilon = 0.05;
  EXPECT_NE(sim::CellStorePreimage(tighter, tighter.ExpandCells()[0]), base);
}

TEST(CellPreimageTest, PinnedPreimagesNeverDrift) {
  // Golden preimage digests of incentive and chain cells, taken on an
  // earlier build: every other preimage test compares within one build.
  // A moved preimage silently orphans every existing store entry, so a
  // failure here is a schema break (bump kStoreSchemaRevision).
  const sim::ScenarioRegistry& registry = sim::ScenarioRegistry::BuiltIn();
  const sim::ScenarioSpec table1 = registry.Get("table1");
  EXPECT_EQ(
      MakeCellKey(sim::CellStorePreimage(table1, table1.ExpandCells()[0]))
          .Hex(),
      "e69f070c44347f5e0a16d9765c0e2dcf84a50f5e2903703cec9cdf59f9b4d601");
  const sim::ScenarioSpec selfish = registry.Get("selfish-grid");
  EXPECT_EQ(
      MakeCellKey(sim::CellStorePreimage(selfish, selfish.ExpandCells()[0]))
          .Hex(),
      "f5e3981d9eb0e7ca9902389684a6c50955bbb96f951f49d9c75c476fcf8381a3");
  // 10^5 Pareto stakes: every bit pattern goes through the hex writer.
  const sim::ScenarioSpec sweep = registry.Get("large-population-sweep");
  const std::vector<sim::CampaignCell> sweep_cells = sweep.ExpandCells();
  const sim::CampaignCell& largest = sweep_cells[3];
  ASSERT_EQ(largest.Stakes().size(), 100000u);
  EXPECT_EQ(
      MakeCellKey(sim::CellStorePreimage(sweep, largest)).Hex(),
      "d5f6df37fe0b7e816ddaca63436be7ce08063c2ce35e126766b74fdb2b354aab");
}

class CampaignStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = ::testing::TempDir() + "campaign_store_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    fs::remove_all(directory_);
  }
  void TearDown() override { fs::remove_all(directory_); }

  std::string directory_;
};

TEST_F(CampaignStoreTest, MissThenPutThenHitWithAccounting) {
  CampaignStore store(directory_);
  const CellKey key = MakeCellKey("cell A");
  EXPECT_EQ(store.Load(key).status, LoadStatus::kMiss);
  EXPECT_TRUE(store.Put(key, SampleResult()));
  const LoadResult loaded = store.Load(key);
  ASSERT_EQ(loaded.status, LoadStatus::kHit) << loaded.detail;
  EXPECT_EQ(EncodeSimulationResult(loaded.result),
            EncodeSimulationResult(SampleResult()));
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST_F(CampaignStoreTest, CommitIsAtomicNoTempFilesSurvive) {
  CampaignStore store(directory_);
  store.Put(MakeCellKey("cell A"), SampleResult());
  store.Put(MakeCellKey("cell B"), SampleResult());
  std::size_t cells = 0;
  for (const auto& entry : fs::directory_iterator(directory_)) {
    EXPECT_EQ(entry.path().extension(), ".cell") << entry.path();
    ++cells;
  }
  EXPECT_EQ(cells, 2u);
}

TEST_F(CampaignStoreTest, VersionMismatchIsNeverServed) {
  const CellKey key = MakeCellKey("cell A");
  {
    CampaignStore old_build(directory_, "0.1.0+schema0");
    old_build.Put(key, SampleResult());
  }
  CampaignStore new_build(directory_, "0.2.0+schema1");
  const LoadResult loaded = new_build.Load(key);
  EXPECT_EQ(loaded.status, LoadStatus::kVersionMismatch);
  EXPECT_NE(loaded.detail.find("0.1.0+schema0"), std::string::npos)
      << loaded.detail;
  EXPECT_EQ(new_build.stats().version_mismatches, 1u);
  // Recompute-and-overwrite heals the store for the new build.
  EXPECT_TRUE(new_build.Put(key, SampleResult()));
  EXPECT_EQ(new_build.Load(key).status, LoadStatus::kHit);
}

TEST_F(CampaignStoreTest, DefaultVersionStampsSchemaRevision) {
  EXPECT_NE(DefaultCodeVersion().find(
                "+schema" + std::to_string(kStoreSchemaRevision)),
            std::string::npos);
  CampaignStore store(directory_);
  EXPECT_EQ(store.code_version(), DefaultCodeVersion());
}

TEST_F(CampaignStoreTest, EveryTruncationOfAnEntryIsCorruptOrMiss) {
  CampaignStore store(directory_);
  const CellKey key = MakeCellKey("cell A");
  store.Put(key, SampleResult());
  std::string bytes;
  {
    std::ifstream in(store.EntryPath(key), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t length = 0; length < bytes.size(); length += 7) {
    std::ofstream out(store.EntryPath(key),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(length));
    out.close();
    const LoadResult loaded = store.Load(key);
    EXPECT_EQ(loaded.status, LoadStatus::kCorrupt)
        << "a " << length << "-byte truncation was not flagged";
  }
}

TEST_F(CampaignStoreTest, EveryFlippedByteIsRejected) {
  CampaignStore store(directory_);
  const CellKey key = MakeCellKey("cell A");
  store.Put(key, SampleResult());
  std::string bytes;
  {
    std::ifstream in(store.EntryPath(key), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Flip one bit at a stride across the whole entry — magic, key echo,
  // version stamp, preimage, payload, and trailer hash are ALL covered by
  // some verification, so no flip may produce a hit.
  for (std::size_t at = 0; at < bytes.size(); at += 11) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    {
      std::ofstream out(store.EntryPath(key),
                        std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    const LoadResult loaded = store.Load(key);
    EXPECT_NE(loaded.status, LoadStatus::kHit)
        << "flipping byte " << at << " was served as a verified hit";
  }
}

TEST_F(CampaignStoreTest, EntriesEmbedTheirPreimageForDebuggability) {
  CampaignStore store(directory_);
  const CellKey key = MakeCellKey("the canonical cell description");
  store.Put(key, SampleResult());
  std::ifstream in(store.EntryPath(key), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("the canonical cell description"),
            std::string::npos);
}

TEST_F(CampaignStoreTest, UnwritableDirectoryFailsConstruction) {
  EXPECT_THROW(CampaignStore("/dev/null/not-a-directory"),
               std::runtime_error);
}

}  // namespace
}  // namespace fairchain::store
