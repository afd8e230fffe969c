// Minimal JSON support: a streaming writer for the machine-readable outputs
// (metrics JSONL, BENCH_*.json) and a parser into a small read-only DOM
// (JsonValue/JsonParse) — the offline trace checker reads JSONL trace lines
// through it, and tests use it to check that exported files are
// well-formed.
//
// Deliberately tiny — no external dependency. The writer tracks nesting and
// comma placement; values are escaped per RFC 8259. Numbers are emitted
// with enough precision to round-trip doubles.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sbs {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number);
  JsonWriter& value(bool flag);

  /// Shorthand for key(name).value(v).
  template <typename T>
  JsonWriter& kv(const std::string& name, const T& v) {
    return key(name).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma();
  std::string out_;
  std::vector<bool> needs_comma_;  ///< one entry per open object/array
  bool after_key_ = false;
};

std::string JsonEscape(const std::string& text);

/// Writes `json` and a newline to `path`, appended to the file when `append`
/// is set and replacing it otherwise. Returns false if opening, writing or
/// closing the file fails.
bool WriteJsonLine(const std::string& path, const std::string& json,
                   bool append = false);

/// Parsed JSON value. Accessors are total: a type mismatch or missing key
/// returns the given default (or a shared null value), never throws — the
/// trace checker reports malformed input as a verification finding, not a
/// crash.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  double as_double(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  std::int64_t as_i64(std::int64_t fallback = 0) const;
  const std::string& as_string() const;  ///< empty string on mismatch

  /// Array elements (empty unless is_array()).
  const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order (empty unless is_object()).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  std::size_t size() const {
    return is_array() ? items_.size() : members_.size();
  }

  /// Object lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Object lookup; a shared null value when absent — chainable:
  /// doc["config"]["levels"] never faults.
  const JsonValue& operator[](const std::string& key) const;
  /// Array index; a shared null value when out of range.
  const JsonValue& operator[](std::size_t index) const;

  // --- construction (used by JsonParse) ---
  static JsonValue null_value() { return JsonValue(); }
  static JsonValue of(bool b);
  static JsonValue of(double n);
  static JsonValue of(std::string s);
  static JsonValue array();
  static JsonValue object();
  void push_back(JsonValue v);                     ///< must be an array
  void insert(std::string key, JsonValue v);       ///< must be an object

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one complete JSON value (trailing whitespace ok) into a DOM.
/// Returns false on malformed input, with a brief message and byte offset
/// in `error` if non-null; `out` is left null-typed.
bool JsonParse(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

}  // namespace sbs
