// Streaming row sinks for campaign and verdict output.
//
// Every output row type — CampaignRow here, verify::VerdictRow — lists its
// columns exactly once, in a ForEachColumn(row, f) overload that calls
// f(name, value) in schema order.  CsvSink and JsonlSink derive the CSV
// header and both line formats from that list, and CsvValue / JsonValue
// hold every per-type format rule once, so no schema is typed twice.
//
// Rows are streamed in deterministic order (the CampaignRunner emits
// ascending (cell, checkpoint), VerifyCampaign ascending (cell, check)),
// so output is byte-identical for any thread count.  Column schemas are
// append-only: new columns may only be appended, never reordered or
// removed, so downstream plotting scripts keyed on the header keep
// working.

#ifndef FAIRCHAIN_SIM_RESULT_SINK_HPP_
#define FAIRCHAIN_SIM_RESULT_SINK_HPP_

#include <cstdint>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"
#include "sim/scenario_spec.hpp"

namespace fairchain::sim {

// String escaping (EscapeCsvField / EscapeJsonString) lives in
// support/escape.hpp, shared with obs/export.

/// JSON-safe number rendering: FormatDouble for finite values, `null` for
/// NaN / ±Inf (bare nan/inf tokens are not valid JSON).
std::string JsonNumber(double value);

// Column values come in five types; each format's rules live here once.
// Doubles render via sim::FormatDouble (deterministic, shortest round
// trip) — NaN as `nan` in CSV and null in JSON; an empty optional is
// `never` / null (a cell that never converges); a bool is a verdict,
// `pass`/`FAIL` / true/false.  Strings are RFC-4180 / JSON escaped.
std::string CsvValue(const std::string& value);
std::string CsvValue(std::uint64_t value);
std::string CsvValue(double value);
std::string CsvValue(const std::optional<std::uint64_t>& value);
std::string CsvValue(bool passed);
std::string JsonValue(const std::string& value);
std::string JsonValue(std::uint64_t value);
std::string JsonValue(double value);
std::string JsonValue(const std::optional<std::uint64_t>& value);
std::string JsonValue(bool passed);

/// The grid-coordinate prefix every row type starts with.
template <typename F>
void ForEachColumn(const std::string& scenario, const CampaignCell& cell,
                   F&& f) {
  f("scenario", scenario);
  f("cell", std::uint64_t{cell.index});
  f("protocol", cell.protocol);
  f("miners", std::uint64_t{cell.miners});
  f("whales", std::uint64_t{cell.whales});
  f("a", cell.a);
  f("w", cell.w);
  f("v", cell.v);
  f("shards", std::uint64_t{cell.shards});
  f("withhold", cell.withhold);
}

/// One checkpoint of one campaign cell, fully denormalised so every row is
/// self-describing (grid coordinates repeat on purpose — tidy data).
struct CampaignRow {
  std::string scenario;
  CampaignCell cell;
  std::uint64_t steps = 0;
  std::uint64_t replications = 0;
  std::uint64_t cell_seed = 0;
  std::uint64_t checkpoint = 0;  ///< checkpoint index within the cell
  /// The checkpoint's statistics.  Population metrics are NaN when the
  /// campaign runs with them off; the fork observables are NaN for
  /// incentive cells.
  core::CheckpointStats stats;
  /// Cell-level convergence step, repeated on each of the cell's rows;
  /// nullopt = "Never" (as in Table 1).
  std::optional<std::uint64_t> convergence_step;
};

/// The campaign schema: the one list of CampaignRow's columns.
template <typename F>
void ForEachColumn(const CampaignRow& row, F&& f) {
  ForEachColumn(row.scenario, row.cell, f);
  f("steps", row.steps);
  f("replications", row.replications);
  // As decimal text: seeds are full-range 64-bit values, beyond the 2^53
  // exact-integer range of double-based JSON parsers, and the row exists
  // to make the cell reproducible via --seed.
  f("cell_seed", std::to_string(row.cell_seed));
  f("checkpoint", row.checkpoint);
  f("step", row.stats.step);
  f("mean", row.stats.mean);
  f("std_dev", row.stats.std_dev);
  f("p05", row.stats.p05);
  f("p25", row.stats.p25);
  f("median", row.stats.median);
  f("p75", row.stats.p75);
  f("p95", row.stats.p95);
  f("min", row.stats.min);
  f("max", row.stats.max);
  f("unfair_probability", row.stats.unfair_probability);
  f("convergence_step", row.convergence_step);
  // Appended columns (the schema is append-only).
  f("stake_dist", row.cell.stake_dist);
  f("gini", row.stats.gini);
  f("hhi", row.stats.hhi);
  f("nakamoto", row.stats.nakamoto);
  f("top_decile_share", row.stats.top_decile_share);
  f("gamma", row.cell.gamma);
  f("delay", row.cell.delay);
  f("orphan_rate", row.stats.orphan_rate);
  f("reorg_depth_mean", row.stats.reorg_depth_mean);
  f("reorg_depth_max", row.stats.reorg_depth_max);
}

/// Abstract streaming consumer of one row type.
template <typename Row>
class RowSink {
 public:
  virtual ~RowSink() = default;

  /// Called once before any row; sinks emit headers here.
  virtual void Begin(const ScenarioSpec& spec) { (void)spec; }

  /// Called once per row, in the producer's deterministic order.
  virtual void WriteRow(const Row& row) = 0;

  /// Called once after the last row; sinks flush here.
  virtual void End() {}
};

/// RFC-4180-ish CSV: a header line from the column names, then one line
/// per row.
template <typename Row>
class CsvSink : public RowSink<Row> {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}

  /// The exact header line (no newline); tests pin the schema against it.
  static const std::string& Header() {
    static const std::string header = [] {
      std::string line;
      const char* separator = "";
      ForEachColumn(Row{}, [&](const char* name, const auto&) {
        line += separator;
        line += name;
        separator = ",";
      });
      return line;
    }();
    return header;
  }

  void Begin(const ScenarioSpec& spec) override {
    (void)spec;
    out_ << Header() << '\n';
  }

  void WriteRow(const Row& row) override {
    line_.clear();
    const char* separator = "";
    ForEachColumn(row, [&](const char*, const auto& value) {
      line_ += separator;
      line_ += CsvValue(value);
      separator = ",";
    });
    line_ += '\n';
    out_ << line_;
  }

  void End() override { out_.flush(); }

 private:
  std::ostream& out_;
  std::string line_;  // reused: one stream write per row
};

/// One JSON object per line, keyed by the CSV column names.
template <typename Row>
class JsonlSink : public RowSink<Row> {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void WriteRow(const Row& row) override {
    line_.clear();
    char open = '{';
    ForEachColumn(row, [&](const char* name, const auto& value) {
      line_ += open;
      line_ += '"';
      line_ += name;
      line_ += "\":";
      line_ += JsonValue(value);
      open = ',';
    });
    line_ += "}\n";
    out_ << line_;
  }

  void End() override { out_.flush(); }

 private:
  std::ostream& out_;
  std::string line_;  // reused: one stream write per row
};

/// Formats a convergence step as the paper's Table 1 does: the step, or
/// "Never" when (ε,δ)-fairness is never reached.
std::string FormatConvergence(const std::optional<std::uint64_t>& step);

/// Collects each cell's final checkpoint and prints an aligned summary
/// Table (one row per cell) to stdout at End — the human-facing view the
/// CLI shows.
class SummarySink : public RowSink<CampaignRow> {
 public:
  void Begin(const ScenarioSpec& spec) override;
  void WriteRow(const CampaignRow& row) override;
  void End() override;

 private:
  std::string title_;
  std::vector<CampaignRow> final_rows_;
};

/// Opens both output files, or neither: a path that cannot be opened
/// leaves an existing file at the other path untouched (not truncated).
bool OpenFilePair(const std::string& first_path,
                  const std::string& second_path, std::ofstream& first,
                  std::ofstream& second);

/// The standard sink trio every campaign and verify entry point uses: a
/// stdout `Summary` sink plus optional streaming CSV and JSONL file sinks.
/// Owning the streams and the wiring here keeps `campaign` and `verify`
/// consistent.
template <typename Row, typename Summary>
class FileSinks {
 public:
  FileSinks() = default;
  // The file sinks hold references to the streams below.
  FileSinks(const FileSinks&) = delete;
  FileSinks& operator=(const FileSinks&) = delete;

  /// Opens the streaming file sinks.  Returns false — leaving both
  /// detached and any existing file at either path unchanged — when
  /// either path cannot be opened for writing.
  bool OpenFiles(const std::string& csv_path, const std::string& jsonl_path) {
    if (!OpenFilePair(csv_path, jsonl_path, csv_file_, jsonl_file_)) {
      return false;
    }
    csv_.emplace(csv_file_);
    jsonl_.emplace(jsonl_file_);
    return true;
  }

  /// The attached sinks, ready to pass to the row producer.
  std::vector<RowSink<Row>*> sinks() {
    std::vector<RowSink<Row>*> attached = {&summary_};
    if (csv_) attached.push_back(&*csv_);
    if (jsonl_) attached.push_back(&*jsonl_);
    return attached;
  }

 private:
  Summary summary_;
  std::ofstream csv_file_;
  std::ofstream jsonl_file_;
  std::optional<CsvSink<Row>> csv_;
  std::optional<JsonlSink<Row>> jsonl_;
};

}  // namespace fairchain::sim

#endif  // FAIRCHAIN_SIM_RESULT_SINK_HPP_
