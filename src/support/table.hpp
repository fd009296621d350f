// Console table rendering for the CLI and the bench binaries.
//
// Every human-facing table (campaign and verify summaries, the CLI's
// reports, the bench figures) prints through this class, so output is
// uniform: an aligned ASCII table on stdout.  Machine-readable output is
// the campaign and verdict CSV/JSONL of sim/result_sink.hpp.

#ifndef FAIRCHAIN_SUPPORT_TABLE_HPP_
#define FAIRCHAIN_SUPPORT_TABLE_HPP_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace fairchain {

/// An in-memory table with typed cell formatting helpers.
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Optional caption printed above the table.
  void SetTitle(std::string title) { title_ = std::move(title); }

  /// Starts a new (empty) row.
  void AddRow();

  /// Appends a string cell to the last row.
  void Cell(const std::string& value);
  /// Appends an integer cell.
  void Cell(std::uint64_t value);
  /// Appends a signed integer cell.
  void Cell(std::int64_t value);
  /// Appends a floating cell with `precision` digits after the point.
  void Cell(double value, int precision = 4);
  /// Appends a cell formatted in scientific notation.
  void CellSci(double value, int precision = 2);

  std::size_t rows() const { return cells_.size(); }
  std::size_t columns() const { return headers_.size(); }

  /// Renders an aligned ASCII table.
  void Print(std::ostream& out) const;

  /// Prints to stdout, followed by a blank line.
  void Emit() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_TABLE_HPP_
