// Tests for the console table renderer.

#include "support/table.hpp"

#include <sstream>

#include <gtest/gtest.h>

namespace fairchain {
namespace {

TEST(TableTest, RequiresColumns) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, PrintsHeadersAndRows) {
  Table table({"n", "value"});
  table.AddRow();
  table.Cell(std::uint64_t{10});
  table.Cell(0.5, 2);
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
  EXPECT_NE(text.find("10"), std::string::npos);
  EXPECT_NE(text.find("0.50"), std::string::npos);
}

TEST(TableTest, TitleAppearsWhenSet) {
  Table table({"a"});
  table.SetTitle("My Title");
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("My Title"), std::string::npos);
}

TEST(TableTest, CellWithoutRowStartsOne) {
  Table table({"a", "b"});
  table.Cell("x");
  table.Cell("y");
  EXPECT_EQ(table.rows(), 1u);
}

TEST(TableTest, ScientificFormatting) {
  Table table({"x"});
  table.AddRow();
  table.CellSci(0.000123, 2);
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("1.23e-04"), std::string::npos);
}

TEST(TableTest, AlignedColumnsHaveEqualWidths) {
  Table table({"col"});
  table.AddRow();
  table.Cell(std::string("short"));
  table.AddRow();
  table.Cell(std::string("much-longer-value"));
  std::ostringstream out;
  table.Print(out);
  std::string line;
  std::istringstream lines(out.str());
  std::vector<std::size_t> widths;
  while (std::getline(lines, line)) widths.push_back(line.size());
  for (std::size_t i = 1; i < widths.size(); ++i) {
    EXPECT_EQ(widths[i], widths[0]);
  }
}

}  // namespace
}  // namespace fairchain
