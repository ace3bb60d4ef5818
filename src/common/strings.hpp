#pragma once
// Small string helpers shared by reports and trace writers.

#include <string>
#include <vector>

namespace simty {

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Concatenates string-like parts ("a", std::to_string(7) -> "a7"). Use it
/// instead of `"lit" + std::string&&`: GCC 12 at -O3 misreports that
/// operator's inlined insert as -Wrestrict, which fails -Werror Release
/// builds.
template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Formats a fraction as a percentage string, e.g. 0.179 -> "17.9%".
std::string percent(double fraction, int decimals = 1);

}  // namespace simty
