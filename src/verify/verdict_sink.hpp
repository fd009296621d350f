// Verdict rows and the verdict summary.
//
// VerifyCampaign flattens every cell's CellVerdict into VerdictRows (one
// row per check, tidy-data style, starting with the same grid-coordinate
// prefix as the campaign CampaignRow) and streams them in ascending
// (cell, check) order through the shared sink family of
// sim/result_sink.hpp — sim::CsvSink<VerdictRow>,
// sim::JsonlSink<VerdictRow> and sim::FileSinks<VerdictRow,
// VerdictSummarySink> — under the same append-only schema contract.

#ifndef FAIRCHAIN_VERIFY_VERDICT_SINK_HPP_
#define FAIRCHAIN_VERIFY_VERDICT_SINK_HPP_

#include <cstddef>
#include <string>
#include <vector>

#include "sim/result_sink.hpp"
#include "sim/scenario_spec.hpp"
#include "verify/statistical_judge.hpp"

namespace fairchain::verify {

/// One acceptance check of one campaign cell, fully denormalised.
struct VerdictRow {
  std::string scenario;
  sim::CampaignCell cell;
  std::string oracle;  ///< producing oracle ("none" when sanity-only)
  /// The check; its p-value is NaN for structural checks and its detail
  /// (failure context) may contain commas and quotes.
  CheckResult result;
  double threshold = 0.0;  ///< Bonferroni-corrected p-value threshold
};

/// The verdict schema: the one list of VerdictRow's columns.
template <typename F>
void ForEachColumn(const VerdictRow& row, F&& f) {
  sim::ForEachColumn(row.scenario, row.cell, f);
  f("oracle", row.oracle);
  f("check", row.result.check);
  f("statistic", row.result.statistic);
  f("p_value", row.result.p_value);
  f("threshold", row.threshold);
  f("passed", row.result.passed);
  f("detail", row.result.detail);
}

/// Collects per-cell outcomes and prints an aligned summary table (one row
/// per cell) to stdout at End — the human-facing view the CLI shows.
class VerdictSummarySink : public sim::RowSink<VerdictRow> {
 public:
  void Begin(const sim::ScenarioSpec& spec) override;
  void WriteRow(const VerdictRow& row) override;
  void End() override;

 private:
  struct CellSummary {
    std::size_t cell = 0;
    std::string protocol;
    std::string oracle;
    std::size_t checks = 0;
    std::size_t failures = 0;
    bool has_p = false;  ///< any finite p-value seen (else "min p" is "-")
    double min_p = 1.0;  ///< smallest finite p-value seen
    std::string failed_checks;
  };

  std::string title_;
  std::vector<CellSummary> cells_;
};

}  // namespace fairchain::verify

#endif  // FAIRCHAIN_VERIFY_VERDICT_SINK_HPP_
