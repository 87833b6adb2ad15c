// Small string utilities shared across the tool chain.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace partita::support {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on any run of ASCII whitespace; empty fields are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

/// Joins the pieces with the given separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Parses a decimal integer; returns false on malformed input or overflow.
bool parse_int(std::string_view s, std::int64_t& out);

/// Parses a floating-point literal; returns false on malformed input.
bool parse_double(std::string_view s, double& out);

/// Formats n with thousands separators, e.g. 1234567 -> "1,234,567".
std::string with_commas(std::int64_t n);

/// Formats a double trimming trailing zeros, e.g. 3.50 -> "3.5", 3.0 -> "3".
std::string compact_double(double v);

}  // namespace partita::support
