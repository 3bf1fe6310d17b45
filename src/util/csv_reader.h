// RFC-4180-style CSV parsing, the inverse of CsvWriter.
//
// Used by the io module to load network inventories and configuration
// snapshots produced by export (or by an operator's own tooling). Every
// table remembers its source name and the 1-based file line of each data
// row, so import errors can say "carriers.csv line 17" instead of "row 15".
#pragma once

#include <istream>
#include <map>
#include <string>
#include <vector>

namespace auric::util {

/// Splits one CSV record into fields, honoring double-quote quoting and
/// doubled-quote escapes. Throws std::invalid_argument on malformed quoting.
std::vector<std::string> parse_csv_line(const std::string& line);

/// A fully parsed CSV file with a header row.
class CsvTable {
 public:
  /// Parses from a stream. Requires a header row; data rows must match its
  /// arity. Empty trailing lines are ignored. `source` names the stream in
  /// error messages (load() passes the file path).
  static CsvTable parse(std::istream& in, const std::string& source = "<csv>");

  /// Convenience: opens and parses `path`; throws std::runtime_error if the
  /// file cannot be read.
  static CsvTable load(const std::string& path);

  const std::vector<std::string>& headers() const { return headers_; }
  std::size_t row_count() const { return rows_.size(); }

  /// The name errors refer to (file path, or whatever parse() was given).
  const std::string& source() const { return source_; }

  /// 1-based line in the source file holding data row `row` (header and
  /// skipped blank lines included in the count).
  std::size_t line(std::size_t row) const { return line_numbers_.at(row); }

  /// "`source` line N" — the prefix every import diagnostic should carry.
  std::string context(std::size_t row) const;

  /// Field of row `row` in the column named `column`; throws
  /// std::out_of_range for unknown columns.
  const std::string& field(std::size_t row, const std::string& column) const;

  /// Typed accessors; parse failures throw std::invalid_argument naming the
  /// source, line and column.
  long long field_int(std::size_t row, const std::string& column) const;
  double field_double(std::size_t row, const std::string& column) const;

  /// True when the table has a column of this name.
  bool has_column(const std::string& column) const;

 private:
  std::string source_;
  std::vector<std::string> headers_;
  std::map<std::string, std::size_t> column_index_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> line_numbers_;
};

}  // namespace auric::util
