// Chain-dynamics campaigns through the whole stack: the runner must carry
// fork physics (orphan rates, reorg depths) from the kernel into cell
// outcomes and sink rows, stay byte-identical across serial / pool /
// process-shard backends, and resume from the campaign store after a
// killed shard worker exactly like the incentive family does.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"
#include "store/campaign_store.hpp"

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#endif

namespace fairchain {
namespace {

// Four chain cells (selfish / forkrace × delay 0 / 0.25) × 8 replications,
// chunked at 4: the same 8-chunk geometry the incentive fault harness
// uses, so the shard-kill scenarios aim at known chunks.
sim::ScenarioSpec ChainSpec() {
  return sim::ScenarioSpec::FromText(
      "name=chain-harness\n"
      "description=chain dynamics through the campaign stack\n"
      "family=chain\n"
      "protocols=selfish,forkrace\n"
      "a=0.3\n"
      "gamma=0.5\n"
      "delay=0,0.25\n"
      "steps=50\n"
      "reps=8\n"
      "seed=20210620\n"
      "checkpoints=2\n");
}

constexpr unsigned kChunkReplications = 4;

struct Captured {
  std::string csv;
  std::string jsonl;
  std::vector<sim::CellOutcome> outcomes;
};

Captured RunChainCampaign(const core::ExecutionBackend* backend,
                          store::CampaignStore* store = nullptr) {
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink<sim::CampaignRow> csv(csv_out);
  sim::JsonlSink<sim::CampaignRow> jsonl(jsonl_out);
  sim::CampaignOptions options;
  options.backend = backend;
  options.chunk_replications = kChunkReplications;
  options.store = store;
  Captured captured;
  captured.outcomes =
      sim::CampaignRunner(options).Run(ChainSpec(), {&csv, &jsonl});
  captured.csv = csv_out.str();
  captured.jsonl = jsonl_out.str();
  return captured;
}

const Captured& Reference() {
  static const Captured reference = [] {
    const core::SerialBackend serial;
    return RunChainCampaign(&serial);
  }();
  return reference;
}

TEST(ChainCampaignTest, OutcomesCarryChainObservables) {
  const Captured& captured = Reference();
  ASSERT_EQ(captured.outcomes.size(), 4u);
  for (const sim::CellOutcome& outcome : captured.outcomes) {
    ASSERT_FALSE(outcome.result.checkpoints.empty());
    const core::CheckpointStats& final_stats =
        outcome.result.checkpoints.back();
    EXPECT_TRUE(std::isfinite(final_stats.orphan_rate));
    EXPECT_GE(final_stats.orphan_rate, 0.0);
    EXPECT_LE(final_stats.orphan_rate, 1.0);
    EXPECT_GE(final_stats.reorg_depth_max, final_stats.reorg_depth_mean);
  }
  // Cell order: protocol outer, delay innermost — selfish@0, selfish@.25,
  // forkrace@0, forkrace@.25.  The delay-free fork race is forkless by
  // construction; the delayed one orphans at ~ρ/(1+ρ) per event.
  const core::CheckpointStats& forkless =
      captured.outcomes[2].result.checkpoints.back();
  const core::CheckpointStats& delayed =
      captured.outcomes[3].result.checkpoints.back();
  EXPECT_DOUBLE_EQ(forkless.orphan_rate, 0.0);
  EXPECT_DOUBLE_EQ(forkless.reorg_depth_mean, 0.0);
  EXPECT_GT(delayed.orphan_rate, 0.0);
}

TEST(ChainCampaignTest, RowsCarryGammaDelayAndChainColumns) {
  const Captured& captured = Reference();
  EXPECT_NE(captured.jsonl.find("\"gamma\":0.5"), std::string::npos);
  EXPECT_NE(captured.jsonl.find("\"delay\":0.25"), std::string::npos);
  EXPECT_NE(captured.jsonl.find("\"orphan_rate\":0"), std::string::npos);
  // No chain row may leave its observables as JSON null — that rendering
  // is reserved for incentive cells.
  EXPECT_EQ(captured.jsonl.find("\"orphan_rate\":null"), std::string::npos);
  EXPECT_EQ(captured.jsonl.find("\"reorg_depth_mean\":null"),
            std::string::npos);
  std::istringstream lines(captured.csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find(",gamma,delay,orphan_rate"), std::string::npos);
}

TEST(ChainCampaignTest, BackendsEmitByteIdenticalStreams) {
  const Captured& reference = Reference();
  const core::ThreadPoolBackend pool(3);
  const Captured pooled = RunChainCampaign(&pool);
  EXPECT_EQ(reference.csv, pooled.csv);
  EXPECT_EQ(reference.jsonl, pooled.jsonl);
  for (const unsigned shards : {1u, 2u, 5u}) {
    const core::ShardBackend backend(shards);
    const Captured sharded = RunChainCampaign(&backend);
    EXPECT_EQ(reference.csv, sharded.csv) << "shard:" << shards;
    EXPECT_EQ(reference.jsonl, sharded.jsonl) << "shard:" << shards;
  }
}

#ifndef _WIN32

namespace fs = std::filesystem;

class ChainCampaignStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("FAIRCHAIN_FAULT");
    directory_ = ::testing::TempDir() + "chain_campaign_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    fs::remove_all(directory_);
  }

  void TearDown() override {
    unsetenv("FAIRCHAIN_FAULT");
    fs::remove_all(directory_);
  }

  std::string directory_;
};

TEST_F(ChainCampaignStoreTest, KilledShardWorkerThenResumeIsByteIdentical) {
  store::CampaignStore store(directory_);
  const core::ShardBackend backend(2);
  // Shard 1 dies mid-message on its primed first chunk (the only chunk a
  // worker deterministically owns under demand-driven grants): that chunk
  // is lost, its cell is unfinishable this run, and the surviving worker
  // drains every other chunk — so exactly three of the four cells commit.
  setenv("FAIRCHAIN_FAULT", "shard-message:1:1:kill", 1);
  EXPECT_THROW(RunChainCampaign(&backend, &store), std::runtime_error);
  unsetenv("FAIRCHAIN_FAULT");

  const Captured resumed = RunChainCampaign(&backend, &store);
  EXPECT_EQ(resumed.csv, Reference().csv);
  EXPECT_EQ(resumed.jsonl, Reference().jsonl);
  ASSERT_EQ(resumed.outcomes.size(), 4u);
  std::size_t cached = 0;
  for (const sim::CellOutcome& outcome : resumed.outcomes) {
    if (outcome.from_cache) ++cached;
  }
  EXPECT_EQ(cached, 3u);
}

TEST_F(ChainCampaignStoreTest, SecondIdenticalCampaignIsServedFromCache) {
  store::CampaignStore store(directory_);
  const core::SerialBackend serial;
  RunChainCampaign(&serial, &store);
  const Captured cached = RunChainCampaign(&serial, &store);
  EXPECT_EQ(cached.csv, Reference().csv);
  EXPECT_EQ(cached.jsonl, Reference().jsonl);
  for (const sim::CellOutcome& outcome : cached.outcomes) {
    EXPECT_TRUE(outcome.from_cache);
  }
  EXPECT_EQ(store.stats().hits, 4u);
}

#endif  // _WIN32

}  // namespace
}  // namespace fairchain
