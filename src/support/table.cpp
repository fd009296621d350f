#include "support/table.hpp"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace fairchain {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: at least one column required");
  }
}

void Table::AddRow() { cells_.emplace_back(); }

void Table::Cell(const std::string& value) {
  if (cells_.empty()) AddRow();
  cells_.back().push_back(value);
}

void Table::Cell(std::uint64_t value) { Cell(std::to_string(value)); }

void Table::Cell(std::int64_t value) { Cell(std::to_string(value)); }

void Table::Cell(double value, int precision) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  oss << value;
  Cell(oss.str());
}

void Table::CellSci(double value, int precision) {
  std::ostringstream oss;
  oss.setf(std::ios::scientific);
  oss.precision(precision);
  oss << value;
  Cell(oss.str());
}

void Table::Print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  if (!title_.empty()) out << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& value = c < row.size() ? row[c] : std::string();
      out << " " << value << std::string(widths[c] - value.size(), ' ')
          << " |";
    }
    out << "\n";
  };
  print_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : cells_) print_row(row);
}

void Table::Emit() const {
  Print(std::cout);
  std::cout << std::endl;
}

}  // namespace fairchain
