// The observability layer must be a pure observer: enabling tracing and
// metrics collection must not change a single output byte, on any
// backend.  Every combination of {serial, pool, shard} x {traced,
// untraced} below must reproduce the serial untraced reference
// byte-for-byte in both CSV and JSONL.
//
// POSIX-only because the shard backend is.

#ifndef _WIN32

#include <sstream>
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

sim::ScenarioSpec DeterminismSpec() {
  return sim::ScenarioSpec::FromText(
      "name=trace-determinism\n"
      "description=tracing must not perturb outputs\n"
      "protocols=pow,mlpos\n"
      "a=0.2,0.4\n"
      "steps=50\n"
      "reps=8\n"
      "seed=20210620\n"
      "checkpoints=2\n");
}

struct Captured {
  std::string csv;
  std::string jsonl;
};

Captured RunCampaign(const core::ExecutionBackend* backend, bool traced) {
  obs::TraceCollector::Global().Clear();
  obs::SetTraceEnabled(traced);
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  sim::CsvSink<sim::CampaignRow> csv(csv_out);
  sim::JsonlSink<sim::CampaignRow> jsonl(jsonl_out);
  sim::CampaignOptions options;
  options.backend = backend;
  options.chunk_replications = 4;
  sim::CampaignRunner(options).Run(DeterminismSpec(), {&csv, &jsonl});
  obs::SetTraceEnabled(false);
  return {csv_out.str(), jsonl_out.str()};
}

class TraceDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::TraceCollector::Global().Clear();
  }
};

TEST_F(TraceDeterminismTest, OutputsAreByteIdenticalAcrossBackendsAndTracing) {
  const core::SerialBackend serial;
  const core::ThreadPoolBackend pool(2);
  const core::ShardBackend shard(2);
  const std::vector<const core::ExecutionBackend*> backends = {
      &serial, &pool, &shard};
  const char* const names[] = {"serial", "pool", "shard"};

  const Captured reference = RunCampaign(&serial, /*traced=*/false);
  ASSERT_FALSE(reference.csv.empty());
  ASSERT_FALSE(reference.jsonl.empty());

  for (std::size_t b = 0; b < backends.size(); ++b) {
    for (const bool traced : {false, true}) {
      const Captured run = RunCampaign(backends[b], traced);
      EXPECT_EQ(run.csv, reference.csv)
          << names[b] << (traced ? " traced" : " untraced");
      EXPECT_EQ(run.jsonl, reference.jsonl)
          << names[b] << (traced ? " traced" : " untraced");
    }
  }
}

TEST_F(TraceDeterminismTest, TracedShardRunYieldsSpansFromEveryShard) {
  const core::ShardBackend shard(2);
  RunCampaign(&shard, /*traced=*/true);
  const std::vector<obs::ImportedSpan> imported =
      obs::TraceCollector::Global().ShardSpans();
  bool saw_shard[2] = {false, false};
  std::size_t chunk_spans = 0;
  for (const obs::ImportedSpan& span : imported) {
    ASSERT_LT(span.shard, 2u);
    saw_shard[span.shard] = true;
    if (span.name == "campaign.chunk") ++chunk_spans;
  }
  EXPECT_TRUE(saw_shard[0]);
  EXPECT_TRUE(saw_shard[1]);
  // 4 cells x 8 reps chunked at 4 => 8 chunks, each traced in its worker.
  EXPECT_EQ(chunk_spans, 8u);
  // The parent recorded its own side of the campaign too.
  std::size_t run_spans = 0;
  for (const obs::SpanRecord& span :
       obs::TraceCollector::Global().LocalSpans()) {
    if (std::string("campaign.run") == span.name) ++run_spans;
  }
  EXPECT_EQ(run_spans, 1u);
}

TEST_F(TraceDeterminismTest, UntracedRunLeavesTheCollectorEmpty) {
  const core::SerialBackend serial;
  RunCampaign(&serial, /*traced=*/false);
  EXPECT_TRUE(obs::TraceCollector::Global().LocalSpans().empty());
  EXPECT_TRUE(obs::TraceCollector::Global().ShardSpans().empty());
}

}  // namespace
}  // namespace fairchain

#endif  // _WIN32
