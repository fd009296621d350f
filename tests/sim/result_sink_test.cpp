// Tests for the streaming result sinks: stable CSV schema, JSONL field
// correspondence, and deterministic double formatting.

#include "sim/result_sink.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "support/escape.hpp"

namespace fairchain::sim {
namespace {

CampaignRow SampleRow() {
  CampaignRow row;
  row.scenario = "demo";
  row.cell.index = 3;
  row.cell.protocol = "cpos";
  row.cell.miners = 5;
  row.cell.whales = 2;
  row.cell.a = 0.25;
  row.cell.w = 0.01;
  row.cell.v = 0.1;
  row.cell.shards = 32;
  row.cell.withhold = 1000;
  row.steps = 5000;
  row.replications = 100;
  row.cell_seed = 42;
  row.checkpoint = 7;
  row.stats.step = 800;
  row.stats.mean = 0.2;
  row.stats.std_dev = 0.015;
  row.stats.p05 = 0.17;
  row.stats.p25 = 0.19;
  row.stats.median = 0.2;
  row.stats.p75 = 0.21;
  row.stats.p95 = 0.23;
  row.stats.min = 0.1;
  row.stats.max = 0.3;
  row.stats.unfair_probability = 0.05;
  row.convergence_step = 400;
  row.cell.stake_dist = "pareto:1.16";
  row.stats.gini = 0.42;
  row.stats.hhi = 0.3;
  row.stats.nakamoto = 2;
  row.stats.top_decile_share = 0.6;
  row.cell.gamma = 0.5;
  row.cell.delay = 0.2;
  row.stats.orphan_rate = 0.03;
  row.stats.reorg_depth_mean = 1.5;
  row.stats.reorg_depth_max = 4.0;
  return row;
}

TEST(ResultSinkTest, CsvHeaderSchemaIsStable) {
  // Pinned on purpose: downstream plotting scripts key on these columns.
  // New columns may only be appended (stake_dist..top_decile_share were,
  // then the chain-dynamics gamma..reorg_depth_max block).
  EXPECT_EQ(CsvSink<CampaignRow>::Header(),
            "scenario,cell,protocol,miners,whales,a,w,v,shards,withhold,"
            "steps,replications,cell_seed,checkpoint,step,mean,std_dev,p05,"
            "p25,median,p75,p95,min,max,unfair_probability,convergence_step,"
            "stake_dist,gini,hhi,nakamoto,top_decile_share,gamma,delay,"
            "orphan_rate,reorg_depth_mean,reorg_depth_max");
}

TEST(ResultSinkTest, CsvRowMatchesSchema) {
  std::ostringstream out;
  CsvSink<CampaignRow> sink(out);
  sink.Begin(ScenarioSpec{});
  sink.WriteRow(SampleRow());
  sink.End();
  std::istringstream lines(out.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(header, CsvSink<CampaignRow>::Header());
  EXPECT_EQ(row,
            "demo,3,cpos,5,2,0.25,0.01,0.1,32,1000,5000,100,42,7,800,0.2,"
            "0.015,0.17,0.19,0.2,0.21,0.23,0.1,0.3,0.05,400,pareto:1.16,"
            "0.42,0.3,2,0.6,0.5,0.2,0.03,1.5,4");
}

TEST(ResultSinkTest, CsvNeverConvergedRendersAsNever) {
  CampaignRow row = SampleRow();
  row.convergence_step.reset();
  std::ostringstream out;
  CsvSink<CampaignRow> sink(out);
  sink.WriteRow(row);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find(",never,"), std::string::npos);
}

TEST(ResultSinkTest, DisabledPopulationMetricsRenderAsNanAndNull) {
  // A campaign with population metrics off leaves the appended metric
  // columns NaN: `nan` tokens in CSV, null in JSONL — never silent zeros.
  CampaignRow row = SampleRow();
  row.stats.gini = std::numeric_limits<double>::quiet_NaN();
  row.stats.hhi = std::numeric_limits<double>::quiet_NaN();
  row.stats.nakamoto = std::numeric_limits<double>::quiet_NaN();
  row.stats.top_decile_share = std::numeric_limits<double>::quiet_NaN();
  {
    std::ostringstream out;
    CsvSink<CampaignRow> sink(out);
    sink.WriteRow(row);
    EXPECT_NE(out.str().find(",pareto:1.16,nan,nan,nan,nan"),
              std::string::npos);
  }
  {
    std::ostringstream out;
    JsonlSink<CampaignRow> sink(out);
    sink.WriteRow(row);
    EXPECT_NE(out.str().find("\"gini\":null"), std::string::npos);
    EXPECT_NE(out.str().find("\"top_decile_share\":null"), std::string::npos);
  }
}

TEST(ResultSinkTest, IncentiveRowsRenderChainObservablesAsNanAndNull) {
  // Incentive-family cells never produce fork physics, so a
  // default-constructed row's orphan/reorg columns must read as "no data"
  // (nan in CSV, null in JSONL), while the gamma/delay axes keep their 0.0
  // defaults.
  CampaignRow row = SampleRow();
  row.cell.gamma = 0.0;
  row.cell.delay = 0.0;
  row.stats.orphan_rate = std::numeric_limits<double>::quiet_NaN();
  row.stats.reorg_depth_mean = std::numeric_limits<double>::quiet_NaN();
  row.stats.reorg_depth_max = std::numeric_limits<double>::quiet_NaN();
  {
    std::ostringstream out;
    CsvSink<CampaignRow> sink(out);
    sink.WriteRow(row);
    EXPECT_NE(out.str().find(",0.6,0,0,nan,nan,nan"), std::string::npos);
  }
  {
    std::ostringstream out;
    JsonlSink<CampaignRow> sink(out);
    sink.WriteRow(row);
    EXPECT_NE(out.str().find("\"orphan_rate\":null"), std::string::npos);
    EXPECT_NE(out.str().find("\"reorg_depth_mean\":null"), std::string::npos);
    EXPECT_NE(out.str().find("\"reorg_depth_max\":null"), std::string::npos);
  }
}

TEST(ResultSinkTest, JsonlRowHasAllColumnsAndNullConvergence) {
  CampaignRow row = SampleRow();
  row.convergence_step.reset();
  std::ostringstream out;
  JsonlSink<CampaignRow> sink(out);
  sink.WriteRow(row);
  const std::string line = out.str();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.substr(line.size() - 2), "}\n");
  // Every CSV column name appears as a JSON key.
  std::istringstream header(CsvSink<CampaignRow>::Header());
  std::string column;
  while (std::getline(header, column, ',')) {
    EXPECT_NE(line.find("\"" + column + "\":"), std::string::npos) << column;
  }
  EXPECT_NE(line.find("\"convergence_step\":null"), std::string::npos);
  // Seeds are full-range 64-bit: emitted as strings so JSON parsers that
  // store numbers as doubles cannot round them.
  EXPECT_NE(line.find("\"cell_seed\":\"42\""), std::string::npos);
}

TEST(ResultSinkTest, FormatConvergencePrintsNeverOrTheStep) {
  EXPECT_EQ(FormatConvergence(std::nullopt), "Never");
  EXPECT_EQ(FormatConvergence(1055), "1055");
}

TEST(ResultSinkTest, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(0.2), "0.2");
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(std::stod(FormatDouble(1.0 / 3.0)), 1.0 / 3.0);
}

// --- escaping ---------------------------------------------------------------

TEST(EscapingTest, CsvFieldsWithoutSpecialsAreByteIdentical) {
  // The no-quoting fast path keeps existing campaign output unchanged.
  EXPECT_EQ(EscapeCsvField("table1"), "table1");
  EXPECT_EQ(EscapeCsvField("ML-PoS"), "ML-PoS");
  EXPECT_EQ(EscapeCsvField(""), "");
}

TEST(EscapingTest, CsvCommasQuotesAndNewlinesAreQuoted) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(EscapeCsvField("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(EscapeCsvField("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(EscapeCsvField("x, \"y\""), "\"x, \"\"y\"\"\"");
}

TEST(EscapingTest, JsonStringsEscapeQuotesBackslashesAndControls) {
  EXPECT_EQ(EscapeJsonString("plain"), "plain");
  EXPECT_EQ(EscapeJsonString("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeJsonString("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeJsonString("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(EscapeJsonString(std::string("nul\x01 end")), "nul\\u0001 end");
}

TEST(EscapingTest, JsonNumberRendersNonFiniteAsNull) {
  EXPECT_EQ(JsonNumber(0.25), "0.25");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(ResultSinkTest, JsonlRowWithNonFiniteMetricsStaysValidJson) {
  CampaignRow row = SampleRow();
  row.stats.mean = std::numeric_limits<double>::quiet_NaN();
  row.stats.max = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  JsonlSink<CampaignRow> sink(out);
  sink.WriteRow(row);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"mean\":null"), std::string::npos);
  EXPECT_NE(line.find("\"max\":null"), std::string::npos);
  // Bare nan/inf tokens are invalid JSON and must never appear.
  EXPECT_EQ(line.find("nan"), std::string::npos);
  EXPECT_EQ(line.find("inf"), std::string::npos);
}

TEST(ResultSinkTest, CsvRowWithNonFiniteMetricsUsesNanInfTokens) {
  // CSV has no null literal; the documented rendering is to_chars' tokens.
  CampaignRow row = SampleRow();
  row.stats.mean = std::numeric_limits<double>::quiet_NaN();
  row.stats.min = -std::numeric_limits<double>::infinity();
  std::ostringstream out;
  CsvSink<CampaignRow> sink(out);
  sink.WriteRow(row);
  EXPECT_NE(out.str().find(",nan,"), std::string::npos);
  EXPECT_NE(out.str().find(",-inf,"), std::string::npos);
}

TEST(ResultSinkTest, HostileScenarioNameWouldBeEscapedInBothFormats) {
  // ScenarioSpec::Validate forbids such names, but rows constructed by
  // hand must still serialise safely.
  CampaignRow row = SampleRow();
  row.scenario = "bad,\"name\"";
  {
    std::ostringstream out;
    CsvSink<CampaignRow> sink(out);
    sink.WriteRow(row);
    EXPECT_EQ(out.str().rfind("\"bad,\"\"name\"\"\",", 0), 0u);
  }
  {
    std::ostringstream out;
    JsonlSink<CampaignRow> sink(out);
    sink.WriteRow(row);
    EXPECT_NE(out.str().find("\"scenario\":\"bad,\\\"name\\\"\""),
              std::string::npos);
  }
}

// --- file sinks ------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(FileSinksTest, FailedOpenLeavesTheOtherFileUntouched) {
  // `--csv keep.csv --jsonl /missing_dir/x.jsonl` must fail without
  // truncating keep.csv, in either order, and must not leave a new empty
  // file behind at a writable path that did not exist before.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "file_sinks_open/";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string existing = dir + "keep.out";
  const std::string fresh = dir + "fresh.out";
  const std::string bad = dir + "missing_dir/x.out";
  for (const bool bad_second : {true, false}) {
    std::ofstream(existing) << "keep me\n";
    for (const std::string& good : {existing, fresh}) {
      FileSinks<CampaignRow, SummarySink> sinks;
      EXPECT_FALSE(bad_second ? sinks.OpenFiles(good, bad)
                              : sinks.OpenFiles(bad, good));
      EXPECT_EQ(sinks.sinks().size(), 1u);  // summary only
    }
    EXPECT_EQ(ReadFile(existing), "keep me\n") << "bad_second=" << bad_second;
    EXPECT_FALSE(fs::exists(fresh)) << "bad_second=" << bad_second;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fairchain::sim
