#include "verify/verdict_sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/table.hpp"

namespace fairchain::verify {

void VerdictSummarySink::Begin(const sim::ScenarioSpec& spec) {
  title_ = "verify " + spec.name + " — " + spec.description;
  cells_.clear();
}

void VerdictSummarySink::WriteRow(const VerdictRow& row) {
  if (cells_.empty() || cells_.back().cell != row.cell.index) {
    CellSummary summary;
    summary.cell = row.cell.index;
    summary.protocol = row.cell.protocol;
    summary.oracle = row.oracle;
    cells_.push_back(summary);
  }
  CellSummary& summary = cells_.back();
  ++summary.checks;
  if (std::isfinite(row.result.p_value)) {
    summary.has_p = true;
    summary.min_p = std::min(summary.min_p, row.result.p_value);
  }
  if (!row.result.passed) {
    ++summary.failures;
    if (!summary.failed_checks.empty()) summary.failed_checks += ",";
    summary.failed_checks += row.result.check;
  }
}

void VerdictSummarySink::End() {
  Table table({"cell", "protocol", "oracle", "checks", "min p", "verdict"});
  table.SetTitle(title_);
  for (const CellSummary& summary : cells_) {
    table.AddRow();
    table.Cell(static_cast<std::uint64_t>(summary.cell));
    table.Cell(summary.protocol);
    table.Cell(summary.oracle.empty() ? std::string("none") : summary.oracle);
    table.Cell(static_cast<std::uint64_t>(summary.checks));
    // Structural-only cells ran no hypothesis test; don't fabricate a p.
    if (summary.has_p) {
      table.CellSci(summary.min_p, 1);
    } else {
      table.Cell(std::string("-"));
    }
    table.Cell(summary.failures == 0
                   ? std::string("pass")
                   : "FAIL(" + summary.failed_checks + ")");
  }
  table.Emit();
}

}  // namespace fairchain::verify
