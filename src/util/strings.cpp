#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace auric::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string format_fixed(double value, int digits) {
  return format("%.*f", digits, value);
}

namespace {

void append_chars(std::string& out, double value, std::chars_format fmt, int precision) {
  // Wide enough for any finite double in fixed notation (309 integer digits)
  // at the precisions callers use.
  char buf[352];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value, fmt, precision);
  if (r.ec != std::errc{}) throw std::length_error("append_chars: precision too large");
  out.append(buf, r.ptr);
}

}  // namespace

void append_general(std::string& out, double value, int precision) {
  append_chars(out, value, std::chars_format::general, precision);
}

void append_fixed(std::string& out, double value, int precision) {
  append_chars(out, value, std::chars_format::fixed, precision);
}

std::string with_commas(long long value) {
  const bool neg = value < 0;
  std::string digits = std::to_string(neg ? -value : value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (neg) out += '-';
  return {out.rbegin(), out.rend()};
}

}  // namespace auric::util
