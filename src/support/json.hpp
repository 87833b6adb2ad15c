// Minimal JSON value, parser and writer helpers.
//
// One JSON implementation serves every subsystem that speaks JSON text: the
// oracle fixture format (partita-oracle-fixture-v1), the wire protocol
// (partita-wire-v1) and the bench trajectory records (partita-bench-v2).
// It is deliberately small: objects, arrays, strings (escapes \" \\ \/ \n
// \t), numbers, true/false/null -- the subset those formats use. Numbers are
// doubles; fmt_double prints them with %.17g so they round-trip exactly.
//
// The parser is a total function over arbitrary bytes: malformed input
// yields std::nullopt plus a one-line reason, never a crash -- the wire
// server feeds it attacker-controlled payloads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace partita::support::json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      v = nullptr;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v); }
  bool is_bool() const { return std::holds_alternative<bool>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_object() const { return std::holds_alternative<std::shared_ptr<Object>>(v); }
  bool is_array() const { return std::holds_alternative<std::shared_ptr<Array>>(v); }

  const Object& object() const { return *std::get<std::shared_ptr<Object>>(v); }
  const Array& array() const { return *std::get<std::shared_ptr<Array>>(v); }
  double number() const { return std::get<double>(v); }
  bool boolean() const { return std::get<bool>(v); }
  const std::string& string() const { return std::get<std::string>(v); }
};

/// Parses a complete JSON document (trailing non-whitespace is an error).
/// On failure returns nullopt and, when `error` is non-null, a one-line
/// reason with the byte offset.
std::optional<Value> parse(const std::string& text, std::string* error = nullptr);

// --- field extraction (missing key or wrong type -> fallback) --------------

double num_or(const Object& o, const char* key, double fallback);
std::int64_t int_or(const Object& o, const char* key, std::int64_t fallback);
bool bool_or(const Object& o, const char* key, bool fallback);
std::string string_or(const Object& o, const char* key, const std::string& fallback);
/// Null when the key is missing or not an object/array.
const Object* object_or_null(const Object& o, const char* key);
const Array* array_or_null(const Object& o, const char* key);

// --- writer helpers --------------------------------------------------------

/// Shortest representation that round-trips a double exactly (%.17g).
std::string fmt_double(double v);

/// JSON string literal, quotes included; escapes ", \, control chars, \n \t.
std::string quote(const std::string& s);

}  // namespace partita::support::json
