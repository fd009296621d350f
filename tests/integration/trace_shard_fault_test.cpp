// Tracing under shard-worker death: a SIGKILLed worker loses only the
// spans it had not yet flushed, the parent keeps every span that made it
// over the pipe, and the exported trace is still a well-formed document.
//
// Geometry (same as shard_fault_test.cpp): 4 cells x 8 reps chunked at 4
// => 8 chunks.  Chunk ownership is demand-driven, so only each worker's
// FIRST chunk (the primed grant) is deterministic — faults aim at nth=1.
// Workers flush their span ring right after each chunk message, and the
// shard-chunk fault point sits after that flush — so killing shard 1 at
// its 1st chunk leaves exactly 1 of its chunk spans in the parent, while
// shard 0 drains and delivers the other 7.
//
// POSIX-only, like the shard backend.

#ifndef _WIN32

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/execution_backend.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"
#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"

namespace fairchain {
namespace {

sim::ScenarioSpec FaultSpec() {
  return sim::ScenarioSpec::FromText(
      "name=trace-fault\n"
      "description=span flushing under worker death\n"
      "protocols=pow,mlpos\n"
      "a=0.2,0.4\n"
      "steps=50\n"
      "reps=8\n"
      "seed=20210620\n"
      "checkpoints=2\n");
}

void RunShardCampaign() {
  const core::ShardBackend backend(2);
  std::ostringstream csv_out;
  sim::CsvSink<sim::CampaignRow> csv(csv_out);
  sim::CampaignOptions options;
  options.backend = &backend;
  options.chunk_replications = 4;
  sim::CampaignRunner(options).Run(FaultSpec(), {&csv});
}

class TraceShardFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("FAIRCHAIN_FAULT");
    obs::TraceCollector::Global().Clear();
    obs::SetTraceEnabled(true);
  }
  void TearDown() override {
    unsetenv("FAIRCHAIN_FAULT");
    obs::SetTraceEnabled(false);
    obs::TraceCollector::Global().Clear();
  }
};

std::size_t ChunkSpansFromShard(const std::vector<obs::ImportedSpan>& spans,
                                unsigned shard) {
  std::size_t count = 0;
  for (const obs::ImportedSpan& span : spans) {
    if (span.shard == shard && span.name == "campaign.chunk") ++count;
  }
  return count;
}

TEST_F(TraceShardFaultTest, KilledWorkerLosesOnlyUnflushedSpans) {
  setenv("FAIRCHAIN_FAULT", "shard-chunk:1:1:kill", 1);
  EXPECT_THROW(RunShardCampaign(), std::runtime_error);

  const std::vector<obs::ImportedSpan> imported =
      obs::TraceCollector::Global().ShardSpans();
  // Shard 1 flushed after its primed chunk and died at the fault point
  // right after that flush: exactly 1 chunk span arrives.
  EXPECT_EQ(ChunkSpansFromShard(imported, 1), 1u);
  // Shard 0 was untouched and drained the other 7 chunks.
  EXPECT_EQ(ChunkSpansFromShard(imported, 0), 7u);

  // Every imported span is internally consistent despite the crash.
  for (const obs::ImportedSpan& span : imported) {
    EXPECT_LE(span.start_ns, span.end_ns) << span.name;
    EXPECT_FALSE(span.name.empty());
  }

  // The parent can still export a well-formed trace document.
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  const std::string trace = out.str();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"name\":\"shard 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"shard 1\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(TraceShardFaultTest, TornSpanStreamNeverPoisonsTheParent) {
  // Kill shard 0 mid wire message: whatever partial bytes the parent saw
  // must not become spans, and the campaign must fail loudly.
  setenv("FAIRCHAIN_FAULT", "shard-message:0:1:kill", 1);
  EXPECT_THROW(RunShardCampaign(), std::runtime_error);
  for (const obs::ImportedSpan& span :
       obs::TraceCollector::Global().ShardSpans()) {
    EXPECT_LE(span.start_ns, span.end_ns) << span.name;
    EXPECT_FALSE(span.name.empty());
  }
}

}  // namespace
}  // namespace fairchain

#endif  // _WIN32
