// Tests for the verdict sinks: pinned CSV schema, escaping of free-text
// fields, and JSON validity for structural (NaN p-value) rows.

#include "verify/verdict_sink.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

namespace fairchain::verify {
namespace {

VerdictRow SampleRow() {
  VerdictRow row;
  row.scenario = "fig2";
  row.cell.index = 3;
  row.cell.protocol = "cpos";
  row.cell.miners = 2;
  row.cell.whales = 1;
  row.cell.a = 0.2;
  row.cell.w = 0.01;
  row.cell.v = 0.1;
  row.cell.shards = 32;
  row.cell.withhold = 0;
  row.oracle = "cpos-martingale";
  row.result.check = "mean";
  row.result.statistic = 1.25;
  row.result.p_value = 0.211;
  row.threshold = 7.7e-05;
  row.result.passed = true;
  return row;
}

TEST(VerdictCsvSinkTest, HeaderSchemaIsStable) {
  // Append-only contract: changing this line breaks downstream consumers.
  EXPECT_EQ(sim::CsvSink<VerdictRow>::Header(),
            "scenario,cell,protocol,miners,whales,a,w,v,shards,withhold,"
            "oracle,check,statistic,p_value,threshold,passed,detail");
}

TEST(VerdictCsvSinkTest, RowMatchesSchema) {
  std::ostringstream out;
  sim::CsvSink<VerdictRow> sink(out);
  sink.Begin(sim::ScenarioSpec{});
  sink.WriteRow(SampleRow());
  sink.End();
  const std::string text = out.str();
  EXPECT_NE(text.find(sim::CsvSink<VerdictRow>::Header() + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("fig2,3,cpos,2,1,0.2,0.01,0.1,32,0,cpos-martingale,"
                      "mean,1.25,0.211,7.7e-05,pass,"),
            std::string::npos);
}

TEST(VerdictCsvSinkTest, DetailWithCommasAndQuotesIsEscaped) {
  std::ostringstream out;
  sim::CsvSink<VerdictRow> sink(out);
  VerdictRow row = SampleRow();
  row.result.passed = false;
  row.result.detail = "mean 0.21 vs exact 0.2, z=\"4.2\"";
  sink.WriteRow(row);
  // RFC 4180: the field is quoted, embedded quotes doubled.
  EXPECT_NE(out.str().find(",FAIL,\"mean 0.21 vs exact 0.2, z=\"\"4.2\"\"\""),
            std::string::npos);
}

TEST(VerdictCsvSinkTest, StructuralNanPValueRendersAsNan) {
  std::ostringstream out;
  sim::CsvSink<VerdictRow> sink(out);
  VerdictRow row = SampleRow();
  row.result.check = "sanity";
  row.result.p_value = std::numeric_limits<double>::quiet_NaN();
  sink.WriteRow(row);
  EXPECT_NE(out.str().find("sanity,1.25,nan,"), std::string::npos);
}

TEST(VerdictJsonlSinkTest, NanPValueBecomesNullAndStringsAreEscaped) {
  std::ostringstream out;
  sim::JsonlSink<VerdictRow> sink(out);
  VerdictRow row = SampleRow();
  row.result.p_value = std::numeric_limits<double>::quiet_NaN();
  row.result.detail = "lambda \"spike\"\nat step 5";
  sink.WriteRow(row);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"p_value\":null"), std::string::npos);
  EXPECT_EQ(line.find("nan"), std::string::npos) << "bare nan is not JSON";
  EXPECT_NE(line.find("\"detail\":\"lambda \\\"spike\\\"\\nat step 5\""),
            std::string::npos);
  EXPECT_NE(line.find("\"passed\":true"), std::string::npos);
}

TEST(VerdictJsonlSinkTest, RowHasEveryColumn) {
  std::ostringstream out;
  sim::JsonlSink<VerdictRow> sink(out);
  sink.WriteRow(SampleRow());
  const std::string line = out.str();
  for (const char* key :
       {"\"scenario\"", "\"cell\"", "\"protocol\"", "\"miners\"",
        "\"whales\"", "\"a\"", "\"w\"", "\"v\"", "\"shards\"",
        "\"withhold\"", "\"oracle\"", "\"check\"", "\"statistic\"",
        "\"p_value\"", "\"threshold\"", "\"passed\"", "\"detail\""}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace fairchain::verify
