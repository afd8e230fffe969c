#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/assert.h"

namespace sbs {

// --- writer ---

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows "key":
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SBS_ASSERT(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SBS_ASSERT(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  comma();
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  comma();
  out_ += '"';
  out_ += JsonEscape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string(text));
}

JsonWriter& JsonWriter::value(double number) {
  comma();
  if (!std::isfinite(number)) {
    out_ += "null";  // JSON has no Inf/NaN
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", number);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  comma();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  comma();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  return value(static_cast<std::int64_t>(number));
}

JsonWriter& JsonWriter::value(bool flag) {
  comma();
  out_ += flag ? "true" : "false";
  return *this;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteJsonLine(const std::string& path, const std::string& json,
                   bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fputs(json.c_str(), f) >= 0 && std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

// --- parser (recursive descent, builds the DOM) ---

namespace {

struct Parser {
  explicit Parser(const std::string& t) : text(t) {}

  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    error = what + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (pos >= text.size() || text[pos] != *p) return fail("bad literal");
      ++pos;
    }
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control char");
      if (c == '\\') {
        if (pos >= text.size()) return fail("truncated escape");
        const char e = text[pos++];
        if (e == 'u') {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos >= text.size() ||
                !std::isxdigit(static_cast<unsigned char>(text[pos])))
              return fail("bad \\u escape");
            const char h = text[pos++];
            code = code * 16 +
                   static_cast<unsigned>(
                       h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          // UTF-8 encode the BMP code point (surrogate pairs are kept as
          // their raw halves; trace files never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
        } else if (e == '"' || e == '\\' || e == '/') {
          out += e;
        } else if (e == 'b' || e == 'f' || e == 'n' || e == 'r' || e == 't') {
          out += e == 'b'   ? '\b'
                 : e == 'f' ? '\f'
                 : e == 'n' ? '\n'
                 : e == 'r' ? '\r'
                            : '\t';
        } else {
          return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos;
    consume('-');
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return fail("bad number");
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    if (consume('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return fail("bad fraction");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos;
      if (peek() == '+' || peek() == '-') ++pos;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return fail("bad exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    if (pos <= start) return false;
    out = JsonValue::of(
        std::strtod(text.substr(start, pos - start).c_str(), nullptr));
    return true;
  }

  char peek() const { return pos < text.size() ? text[pos] : '\0'; }

  bool value(JsonValue& out) {
    skip_ws();
    switch (peek()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        std::string s;
        if (!string(s)) return false;
        out = JsonValue::of(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = JsonValue::of(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue::of(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue::null_value();
        return true;
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    consume('{');
    out = JsonValue::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue member;
      if (!value(member)) return false;
      out.insert(std::move(key), std::move(member));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    consume('[');
    out = JsonValue::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!value(item)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  SBS_ASSERT(out != nullptr);
  Parser parser(text);
  bool ok = parser.value(*out);
  if (ok) {
    parser.skip_ws();
    if (parser.pos != text.size()) ok = parser.fail("trailing garbage");
  }
  if (ok) return true;
  if (error != nullptr) *error = parser.error;
  *out = JsonValue::null_value();
  return false;
}

// --- JsonValue accessors ---

namespace {
const JsonValue& shared_null() {
  static const JsonValue null;
  return null;
}
const std::string& shared_empty_string() {
  static const std::string empty;
  return empty;
}
}  // namespace

std::uint64_t JsonValue::as_u64(std::uint64_t fallback) const {
  if (!is_number() || number_ < 0) return fallback;
  return static_cast<std::uint64_t>(number_);
}

std::int64_t JsonValue::as_i64(std::int64_t fallback) const {
  if (!is_number()) return fallback;
  return static_cast<std::int64_t>(number_);
}

const std::string& JsonValue::as_string() const {
  return is_string() ? string_ : shared_empty_string();
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, member] : members_) {
    if (name == key) return &member;
  }
  return nullptr;
}

const JsonValue& JsonValue::operator[](const std::string& key) const {
  const JsonValue* member = find(key);
  return member != nullptr ? *member : shared_null();
}

const JsonValue& JsonValue::operator[](std::size_t index) const {
  if (!is_array() || index >= items_.size()) return shared_null();
  return items_[index];
}

JsonValue JsonValue::of(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::of(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::of(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

void JsonValue::push_back(JsonValue v) {
  SBS_ASSERT(is_array());
  items_.push_back(std::move(v));
}

void JsonValue::insert(std::string key, JsonValue v) {
  SBS_ASSERT(is_object());
  members_.emplace_back(std::move(key), std::move(v));
}

}  // namespace sbs
