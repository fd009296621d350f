#include "sim/result_sink.hpp"

#include <cmath>
#include <filesystem>
#include <system_error>

#include "support/escape.hpp"
#include "support/table.hpp"

namespace fairchain::sim {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatDouble(value);
}

// ---------------------------------------------------------------------------
// Column values
// ---------------------------------------------------------------------------

std::string CsvValue(const std::string& value) { return EscapeCsvField(value); }
std::string CsvValue(std::uint64_t value) { return std::to_string(value); }
std::string CsvValue(double value) { return FormatDouble(value); }
std::string CsvValue(const std::optional<std::uint64_t>& value) {
  return value ? std::to_string(*value) : "never";
}
std::string CsvValue(bool passed) { return passed ? "pass" : "FAIL"; }

std::string JsonValue(const std::string& value) {
  return '"' + EscapeJsonString(value) + '"';
}
std::string JsonValue(std::uint64_t value) { return std::to_string(value); }
std::string JsonValue(double value) { return JsonNumber(value); }
std::string JsonValue(const std::optional<std::uint64_t>& value) {
  return value ? std::to_string(*value) : "null";
}
std::string JsonValue(bool passed) { return passed ? "true" : "false"; }

// ---------------------------------------------------------------------------
// SummarySink
// ---------------------------------------------------------------------------

std::string FormatConvergence(const std::optional<std::uint64_t>& step) {
  return step ? std::to_string(*step) : std::string("Never");
}

void SummarySink::Begin(const ScenarioSpec& spec) {
  title_ = spec.name + " — " + spec.description;
  final_rows_.clear();
}

void SummarySink::WriteRow(const CampaignRow& row) {
  // The runner emits a cell's checkpoints in ascending order, so the last
  // row seen for a cell is its final checkpoint.
  if (!final_rows_.empty() && final_rows_.back().cell.index == row.cell.index) {
    final_rows_.back() = row;
  } else {
    final_rows_.push_back(row);
  }
}

void SummarySink::End() {
  Table table({"cell", "protocol", "miners", "a", "w", "v", "shards",
               "withhold", "mean", "p5", "p95", "unfair prob", "gini",
               "cvg"});
  table.SetTitle(title_);
  for (const CampaignRow& row : final_rows_) {
    table.AddRow();
    table.Cell(static_cast<std::uint64_t>(row.cell.index));
    table.Cell(row.cell.protocol);
    table.Cell(static_cast<std::uint64_t>(row.cell.miners));
    table.Cell(row.cell.a, 2);
    table.CellSci(row.cell.w, 0);
    table.Cell(row.cell.v, 2);
    table.Cell(static_cast<std::uint64_t>(row.cell.shards));
    table.Cell(row.cell.withhold);
    table.Cell(row.stats.mean, 4);
    table.Cell(row.stats.p05, 4);
    table.Cell(row.stats.p95, 4);
    table.Cell(row.stats.unfair_probability, 3);
    table.Cell(row.stats.gini, 3);
    table.Cell(FormatConvergence(row.convergence_step));
  }
  table.Emit();
}

// ---------------------------------------------------------------------------
// OpenFilePair
// ---------------------------------------------------------------------------

bool OpenFilePair(const std::string& first_path,
                  const std::string& second_path, std::ofstream& first,
                  std::ofstream& second) {
  // Probe both paths in append mode, which never truncates: only when both
  // are writable is either one opened for real.  A file the probe had to
  // create is removed again, so a failure leaves the disk as it was.
  namespace fs = std::filesystem;
  std::error_code error;
  const bool first_existed = fs::exists(first_path, error);
  const bool second_existed = fs::exists(second_path, error);
  if (!std::ofstream(first_path, std::ios::app) ||
      !std::ofstream(second_path, std::ios::app)) {
    if (!first_existed) fs::remove(first_path, error);
    if (!second_existed) fs::remove(second_path, error);
    return false;
  }
  first.open(first_path);
  second.open(second_path);
  if (!first || !second) {
    first.close();
    second.close();
    return false;
  }
  return true;
}

}  // namespace fairchain::sim
