#include "util/csv_reader.h"

#include <fstream>
#include <stdexcept>

namespace auric::util {

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      if (!current.empty()) {
        throw std::invalid_argument("CSV: quote in the middle of an unquoted field");
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r' && i + 1 == line.size()) {
      // tolerate CRLF line endings
    } else {
      current += c;
    }
  }
  if (in_quotes) throw std::invalid_argument("CSV: unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

CsvTable CsvTable::parse(std::istream& in, const std::string& source) {
  CsvTable table;
  table.source_ = source;
  std::string line;
  std::size_t line_number = 0;
  const auto parse_record = [&](const std::string& record) {
    try {
      return parse_csv_line(record);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(source + " line " + std::to_string(line_number) + ": " +
                                  e.what());
    }
  };
  if (!std::getline(in, line)) {
    throw std::invalid_argument(source + ": missing header row");
  }
  ++line_number;
  table.headers_ = parse_record(line);
  for (std::size_t c = 0; c < table.headers_.size(); ++c) {
    table.column_index_[table.headers_[c]] = c;
  }
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line == "\r") continue;
    auto fields = parse_record(line);
    if (fields.size() != table.headers_.size()) {
      throw std::invalid_argument(source + " line " + std::to_string(line_number) +
                                  ": expected " + std::to_string(table.headers_.size()) +
                                  " fields, got " + std::to_string(fields.size()));
    }
    table.rows_.push_back(std::move(fields));
    table.line_numbers_.push_back(line_number);
  }
  return table;
}

CsvTable CsvTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("CsvTable: cannot open " + path);
  return parse(in, path);
}

std::string CsvTable::context(std::size_t row) const {
  return source_ + " line " + std::to_string(line(row));
}

const std::string& CsvTable::field(std::size_t row, const std::string& column) const {
  const auto it = column_index_.find(column);
  if (it == column_index_.end()) {
    throw std::out_of_range(source_ + ": unknown column " + column);
  }
  return rows_.at(row).at(it->second);
}

long long CsvTable::field_int(std::size_t row, const std::string& column) const {
  const std::string& raw = field(row, column);
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(raw, &consumed);
    if (consumed != raw.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(context(row) + ", column " + column +
                                ": expected integer, got '" + raw + "'");
  }
}

double CsvTable::field_double(std::size_t row, const std::string& column) const {
  const std::string& raw = field(row, column);
  try {
    std::size_t consumed = 0;
    const double value = std::stod(raw, &consumed);
    if (consumed != raw.size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(context(row) + ", column " + column +
                                ": expected number, got '" + raw + "'");
  }
}

bool CsvTable::has_column(const std::string& column) const {
  return column_index_.find(column) != column_index_.end();
}

}  // namespace auric::util
