// Crash/kill fault-injection harness for the process-sharded backend and
// the resumable campaign store — the proof behind the resume contract:
//
//   A campaign interrupted ANYWHERE — a shard worker SIGKILLed between or
//   inside wire messages, the whole process SIGKILLed in the middle of a
//   store write — either resumes to byte-identical output or fails loudly.
//   It never silently emits a wrong row.
//
// Faults are injected through the FAIRCHAIN_FAULT environment hook
// (support/fault_injection.hpp): `<site>:<index>:<nth>:<action>` with
// sites shard-chunk / shard-message (worker side) and store-commit /
// store-payload (writer side).  Kill-the-whole-process scenarios fork a
// sacrificial child inside the test and assert on its wait status —
// WTERMSIG must be SIGKILL, i.e. the fault fired where we aimed it.
//
// POSIX-only, like the shard backend itself.

#ifndef _WIN32

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"
#include "store/campaign_store.hpp"

namespace fairchain {
namespace {

namespace fs = std::filesystem;

// Four cells x 8 replications, chunked at 4 => exactly 2 chunks per cell,
// 8 chunks total.  Chunk ownership is demand-driven (the grant protocol in
// core/shard_executor.hpp), so WHICH chunks a worker computes after its
// first is timing-dependent — but each worker's FIRST chunk is the
// deterministic primed grant, so every fault below aims at nth=1.  When a
// worker dies, its undelivered chunk is lost for the run while the
// survivor drains the rest of the queue; assertions therefore count
// committed cells rather than naming them.
sim::ScenarioSpec FaultSpec() {
  return sim::ScenarioSpec::FromText(
      "name=fault-harness\n"
      "description=crash and resume proving ground\n"
      "protocols=pow,mlpos\n"
      "a=0.2,0.4\n"
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

Captured RunCampaign(const core::ExecutionBackend* backend,
                     store::CampaignStore* store, bool read_cache = true) {
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink<sim::CampaignRow> csv(csv_out);
  sim::JsonlSink<sim::CampaignRow> jsonl(jsonl_out);
  sim::CampaignOptions options;
  options.backend = backend;
  options.chunk_replications = kChunkReplications;
  options.store = store;
  options.read_cache = read_cache;
  Captured captured;
  captured.outcomes =
      sim::CampaignRunner(options).Run(FaultSpec(), {&csv, &jsonl});
  captured.csv = csv_out.str();
  captured.jsonl = jsonl_out.str();
  return captured;
}

// The uninterrupted serial reference every resumed run must reproduce
// byte-for-byte.
const Captured& Reference() {
  static const Captured reference = [] {
    const core::SerialBackend serial;
    return RunCampaign(&serial, nullptr);
  }();
  return reference;
}

std::size_t CommittedEntries(const std::string& directory) {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() == ".cell") ++count;
  }
  return count;
}

std::vector<fs::path> TempOrphans(const std::string& directory) {
  std::vector<fs::path> orphans;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (entry.path().filename().string().find(".tmp.") !=
        std::string::npos) {
      orphans.push_back(entry.path());
    }
  }
  return orphans;
}

class ShardFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("FAIRCHAIN_FAULT");
    directory_ = ::testing::TempDir() + "shard_fault_" +
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

// ---------------------------------------------------------------------------
// Worker death mid-campaign.
// ---------------------------------------------------------------------------

TEST_F(ShardFaultTest, KilledWorkerFailsLoudlyAndStoresFinishedCells) {
  store::CampaignStore store(directory_);
  const core::ShardBackend backend(2);
  setenv("FAIRCHAIN_FAULT", "shard-chunk:1:1:kill", 1);
  try {
    RunCampaign(&backend, &store);
    FAIL() << "a SIGKILLed shard worker must fail the campaign";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("signal 9"), std::string::npos) << what;
  }
  // Shard 1 died AFTER fully delivering its primed chunk, so no chunk was
  // lost: the surviving worker drained the whole grant queue and every
  // cell was committed — yet the run still failed loudly above.
  EXPECT_EQ(CommittedEntries(directory_), 4u);
}

TEST_F(ShardFaultTest, ResumeAfterWorkerDeathIsByteIdentical) {
  store::CampaignStore store(directory_);
  const core::ShardBackend backend(2);
  // Kill shard 1 mid-message on its primed chunk: exactly that one chunk
  // is lost, so exactly one cell is unfinishable this run (which one
  // depends on the cost model's dispatch order — count, don't name).
  setenv("FAIRCHAIN_FAULT", "shard-message:1:1:kill", 1);
  EXPECT_THROW(RunCampaign(&backend, &store), std::runtime_error);
  unsetenv("FAIRCHAIN_FAULT");

  const Captured resumed = RunCampaign(&backend, &store);
  EXPECT_EQ(resumed.csv, Reference().csv);
  EXPECT_EQ(resumed.jsonl, Reference().jsonl);
  ASSERT_EQ(resumed.outcomes.size(), 4u);
  std::size_t cached = 0;
  for (const sim::CellOutcome& outcome : resumed.outcomes) {
    if (outcome.from_cache) ++cached;
  }
  EXPECT_EQ(cached, 3u);
  const store::StoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.writes, 4u);  // 3 before the kill + 1 on resume
}

TEST_F(ShardFaultTest, TornMessageFailsLoudlyAndResumes) {
  store::CampaignStore store(directory_);
  const core::ShardBackend backend(2);
  // Kill shard 0 after it has written its primed chunk's header but NOT
  // its payload: the parent must call that exactly what it is.
  setenv("FAIRCHAIN_FAULT", "shard-message:0:1:kill", 1);
  try {
    RunCampaign(&backend, &store);
    FAIL() << "a torn wire message must fail the campaign";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("mid-message"),
              std::string::npos)
        << error.what();
  }
  unsetenv("FAIRCHAIN_FAULT");
  const core::SerialBackend serial;
  const Captured resumed = RunCampaign(&serial, &store);
  EXPECT_EQ(resumed.csv, Reference().csv);
  EXPECT_EQ(resumed.jsonl, Reference().jsonl);
}

TEST_F(ShardFaultTest, CleanWorkerExitMidStreamIsAnError) {
  const core::ShardBackend backend(2);
  setenv("FAIRCHAIN_FAULT", "shard-chunk:1:1:exit=5", 1);
  try {
    RunCampaign(&backend, nullptr);
    FAIL() << "a worker that exits before its done marker must fail";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("exited with status 5"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(ShardFaultTest, StalledWorkerIsWaitedForNotCorrupted) {
  const core::ShardBackend backend(2);
  // Stall shard 1 after its primed chunk, before it requests another: the
  // worst-case grant interleaving — the survivor drains the entire queue
  // while the stalled worker holds nothing — must still be byte-identical.
  setenv("FAIRCHAIN_FAULT", "shard-chunk:1:1:stall=200", 1);
  const Captured stalled = RunCampaign(&backend, nullptr);
  EXPECT_EQ(stalled.csv, Reference().csv);
  EXPECT_EQ(stalled.jsonl, Reference().jsonl);
}

// ---------------------------------------------------------------------------
// Whole-process SIGKILL in the middle of a store write.  The campaign
// process itself dies, so these run it in a forked sacrificial child and
// assert on the wait status: WTERMSIG == SIGKILL proves the fault fired
// at the aimed write, not somewhere incidental.
// ---------------------------------------------------------------------------

void DieInChildCampaign(const std::string& directory, const char* fault) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("FAIRCHAIN_FAULT", fault, 1);
    try {
      store::CampaignStore store(directory);
      const core::SerialBackend serial;
      RunCampaign(&serial, &store);
    } catch (...) {
      _exit(10);
    }
    _exit(11);  // reached only if the fault failed to kill us
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying at the injected fault";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST_F(ShardFaultTest, SigkillBeforeCommitLeavesOnlyTempOrphans) {
  // Die before the rename of the 3rd cell's entry: its bytes exist in
  // full under a temp name, but the committed namespace must only hold
  // the 2 cells whose rename completed.
  DieInChildCampaign(directory_, "store-commit:0:3:kill");
  EXPECT_EQ(CommittedEntries(directory_), 2u);
  EXPECT_FALSE(TempOrphans(directory_).empty());

  store::CampaignStore store(directory_);
  const core::SerialBackend serial;
  const Captured resumed = RunCampaign(&serial, &store);
  EXPECT_EQ(resumed.csv, Reference().csv);
  EXPECT_EQ(resumed.jsonl, Reference().jsonl);
  const store::StoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.corrupt, 0u);  // orphans are invisible, not corruption
}

TEST_F(ShardFaultTest, SigkillMidPayloadWriteLeavesTruncatedTempOnly) {
  // Die half-way through writing the 2nd cell's temp file: a REAL torn
  // write (flushed before the kill), which must never become a committed
  // entry.
  DieInChildCampaign(directory_, "store-payload:0:2:kill");
  EXPECT_EQ(CommittedEntries(directory_), 1u);
  const std::vector<fs::path> orphans = TempOrphans(directory_);
  ASSERT_EQ(orphans.size(), 1u);

  store::CampaignStore store(directory_);
  const core::SerialBackend serial;
  const Captured resumed = RunCampaign(&serial, &store);
  EXPECT_EQ(resumed.csv, Reference().csv);
  EXPECT_EQ(resumed.jsonl, Reference().jsonl);
  EXPECT_EQ(store.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Damaged committed entries: flipped and truncated bytes must be detected
// and recomputed — NEVER served.
// ---------------------------------------------------------------------------

class StoreCorruptionTest : public ShardFaultTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(StoreCorruptionTest, DamagedEntryIsRecomputedNotServed) {
  {
    store::CampaignStore store(directory_);
    const core::SerialBackend serial;
    RunCampaign(&serial, &store);
    ASSERT_EQ(CommittedEntries(directory_), 4u);
  }

  // Damage every committed entry: param 0 flips a payload byte, param 1
  // truncates the file to half.
  for (const auto& dir_entry : fs::directory_iterator(directory_)) {
    if (dir_entry.path().extension() != ".cell") continue;
    std::string bytes;
    {
      std::ifstream in(dir_entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 100u);
    if (GetParam() == 0) {
      // Flip one bit inside the payload (the last 32 bytes are the
      // payload hash; just before them is payload data).
      bytes[bytes.size() - 40] ^= 0x40;
    } else {
      bytes.resize(bytes.size() / 2);
    }
    std::ofstream out(dir_entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  store::CampaignStore store(directory_);
  const core::SerialBackend serial;
  const Captured resumed = RunCampaign(&serial, &store);
  EXPECT_EQ(resumed.csv, Reference().csv);
  EXPECT_EQ(resumed.jsonl, Reference().jsonl);
  for (const sim::CellOutcome& outcome : resumed.outcomes) {
    EXPECT_FALSE(outcome.from_cache);
  }
  const store::StoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.corrupt, 4u);
  EXPECT_EQ(stats.writes, 4u);  // the damaged entries were overwritten
}

INSTANTIATE_TEST_SUITE_P(FlippedAndTruncated, StoreCorruptionTest,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return param.param == 0 ? "FlippedByte"
                                                   : "Truncated";
                         });

// ---------------------------------------------------------------------------
// Cache-policy seams the CLI exposes.
// ---------------------------------------------------------------------------

TEST_F(ShardFaultTest, NoCacheRecomputesButStillWrites) {
  store::CampaignStore store(directory_);
  const core::SerialBackend serial;
  RunCampaign(&serial, &store);
  const Captured recomputed =
      RunCampaign(&serial, &store, /*read_cache=*/false);
  EXPECT_EQ(recomputed.csv, Reference().csv);
  for (const sim::CellOutcome& outcome : recomputed.outcomes) {
    EXPECT_FALSE(outcome.from_cache);
  }
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().writes, 8u);  // both runs wrote all 4 cells
}

TEST_F(ShardFaultTest, SecondIdenticalCampaignRunsZeroReplications) {
  store::CampaignStore store(directory_);
  const core::ShardBackend backend(2);
  RunCampaign(&backend, &store);
  const Captured cached = RunCampaign(&backend, &store);
  EXPECT_EQ(cached.csv, Reference().csv);
  EXPECT_EQ(cached.jsonl, Reference().jsonl);
  for (const sim::CellOutcome& outcome : cached.outcomes) {
    EXPECT_TRUE(outcome.from_cache);
  }
  const store::StoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.writes, 4u);  // only the first run wrote
}

}  // namespace
}  // namespace fairchain

#endif  // _WIN32
