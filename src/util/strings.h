// Small string helpers shared across the project.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace auric::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Join items with `sep`.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view text);

/// printf-style formatting into std::string (type-checked by the compiler).
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting with `digits` decimals (e.g. format_fixed(95.478, 2)
/// -> "95.48"). Used by the report tables so outputs match the paper layout.
std::string format_fixed(double value, int digits);

/// Appends `value` exactly as printf("%.*g", precision, value) would, via
/// std::to_chars (no format-string parse, no temporary string).
void append_general(std::string& out, double value, int precision);

/// Appends `value` exactly as printf("%.*f", precision, value) would.
void append_fixed(std::string& out, double value, int precision);

/// Human-readable integer with thousands separators ("4528139" -> "4,528,139").
std::string with_commas(long long value);

}  // namespace auric::util
