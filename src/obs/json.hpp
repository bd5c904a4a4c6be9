// Minimal JSON support for the observability layer: string escaping and
// the one file writer for the exporters, and a small recursive-descent
// parser used by tests and by tools that round-trip exported metrics/trace
// files. No external deps.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tlbsim::obs {

/// Escape `s` for embedding inside a JSON string literal (quotes excluded).
std::string jsonEscape(std::string_view s);

/// Format a double the way the obs writers do: integers without a decimal
/// point, everything else with enough digits to round-trip.
std::string jsonNumber(double v);

/// Write `text` to `path`, replacing any file there; false when the file
/// cannot be opened or fully written. Every JSON and NDJSON export that
/// is built in memory goes through here.
bool writeTextFile(const std::string& path, std::string_view text);

/// A parsed JSON document. Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  std::vector<JsonValue> items;                            ///< kArray

  bool isNull() const { return type == Type::kNull; }
  bool isObject() const { return type == Type::kObject; }
  bool isArray() const { return type == Type::kArray; }
  bool isNumber() const { return type == Type::kNumber; }
  bool isString() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Parse a complete document; nullopt on any syntax error or trailing
  /// garbage.
  static std::optional<JsonValue> parse(std::string_view text);
};

}  // namespace tlbsim::obs
