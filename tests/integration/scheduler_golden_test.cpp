// Golden determinism for the campaign scheduler: whatever the planner,
// the stealing pool, or the demand-driven shard grants do to WHO computes
// a chunk and WHEN, campaign CSV / JSONL streams must stay byte-identical
// to the serial reference — including under fault-forced worst-case
// interleavings (a stalled pool worker whose deque gets raided, a stalled
// shard whose grants all flow to its sibling) and across a kill + resume
// on the grant protocol itself.
//
// The spec is mixed-family on purpose: a C-PoS cell costs ~30x a PoW cell
// per step, so the cost-aware planner emits genuinely heterogeneous chunk
// geometry and LPT dispatch order here rather than a uniform grid.

#ifndef _WIN32

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"
#include "store/campaign_store.hpp"

namespace fairchain {
namespace {

namespace fs = std::filesystem;

sim::ScenarioSpec MixedSpec() {
  return sim::ScenarioSpec::FromText(
      "name=scheduler-golden\n"
      "description=mixed-cost cells under forced interleavings\n"
      "family=mixed\n"
      "protocols=cpos,pow,selfish\n"
      "a=0.33\n"
      "gamma=0.5\n"
      "delay=0.25\n"
      "steps=200\n"
      "reps=8\n"
      "seed=20210620\n"
      "checkpoints=2\n");
}

struct Captured {
  std::string csv;
  std::string jsonl;
};

// chunk_replications pinned at 2 (3 cells x 4 chunks = 12 chunks) so the
// fault nth targeting below is stable; the runner still dispatches those
// chunks longest-first, and shards still pull them through demand-driven
// grants.
Captured RunCampaign(const core::ExecutionBackend* backend,
                     store::CampaignStore* store = nullptr) {
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink csv(csv_out);
  sim::JsonlSink jsonl(jsonl_out);
  sim::CampaignOptions options;
  options.backend = backend;
  options.chunk_replications = 2;
  options.store = store;
  sim::CampaignRunner(options).Run(MixedSpec(), {&csv, &jsonl});
  return Captured{csv_out.str(), jsonl_out.str()};
}

const Captured& Reference() {
  static const Captured reference = [] {
    const core::SerialBackend serial;
    return RunCampaign(&serial);
  }();
  return reference;
}

class SchedulerGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("FAIRCHAIN_FAULT"); }
  void TearDown() override { unsetenv("FAIRCHAIN_FAULT"); }
};

TEST_F(SchedulerGoldenTest, BackendsMatchSerialWithoutFaults) {
  const core::ThreadPoolBackend pool(4);
  const Captured pooled = RunCampaign(&pool);
  EXPECT_EQ(Reference().csv, pooled.csv);
  EXPECT_EQ(Reference().jsonl, pooled.jsonl);
  for (const unsigned shards : {1u, 2u, 4u}) {
    const core::ShardBackend backend(shards);
    const Captured sharded = RunCampaign(&backend);
    EXPECT_EQ(Reference().csv, sharded.csv) << "shard:" << shards;
    EXPECT_EQ(Reference().jsonl, sharded.jsonl) << "shard:" << shards;
  }
}

TEST_F(SchedulerGoldenTest, WorstCaseStealingIsByteIdentical) {
  // Stall pool worker 0 for 150 ms after its first task: its siblings
  // drain the batch, stealing everything worker 0 was dealt.  Maximal
  // stealing must not move a byte.
  setenv("FAIRCHAIN_FAULT", "pool-task:0:1:stall=150", 1);
  const core::ThreadPoolBackend pool(4);
  const Captured pooled = RunCampaign(&pool);
  EXPECT_EQ(Reference().csv, pooled.csv);
  EXPECT_EQ(Reference().jsonl, pooled.jsonl);
}

TEST_F(SchedulerGoldenTest, WorstCaseGrantSkewIsByteIdentical) {
  // Stall shard 0 for 200 ms after its primed chunk: every subsequent
  // grant flows to shard 1, the most lopsided legal grant interleaving.
  setenv("FAIRCHAIN_FAULT", "shard-chunk:0:1:stall=200", 1);
  const core::ShardBackend backend(2);
  const Captured sharded = RunCampaign(&backend);
  EXPECT_EQ(Reference().csv, sharded.csv);
  EXPECT_EQ(Reference().jsonl, sharded.jsonl);
}

TEST_F(SchedulerGoldenTest, GrantProtocolKillThenResumeReconverges) {
  const std::string directory =
      ::testing::TempDir() + "scheduler_golden_resume";
  fs::remove_all(directory);
  store::CampaignStore store(directory);
  const core::ShardBackend backend(2);
  // Kill shard 1 mid wire message on its primed chunk: the campaign fails
  // loudly, the survivor's cells commit, and a fault-free resume must
  // reconverge to the serial reference byte-for-byte.
  setenv("FAIRCHAIN_FAULT", "shard-message:1:1:kill", 1);
  EXPECT_THROW(RunCampaign(&backend, &store), std::runtime_error);
  unsetenv("FAIRCHAIN_FAULT");

  const Captured resumed = RunCampaign(&backend, &store);
  EXPECT_EQ(Reference().csv, resumed.csv);
  EXPECT_EQ(Reference().jsonl, resumed.jsonl);
  fs::remove_all(directory);
}

}  // namespace
}  // namespace fairchain

#endif  // _WIN32
