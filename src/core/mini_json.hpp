#pragma once

// Minimal recursive-descent JSON parser — just enough to read back what
// trace::JsonWriter emits (objects, arrays, strings, numbers, booleans,
// null — \uXXXX escapes including surrogate pairs decode to UTF-8).
// Promoted from the test utilities so the sweep orchestrator can parse its
// own manifests and per-job result files; still not a general-purpose
// parser (no streaming, whole document in memory).
//
// Hardened against hostile input: nesting is capped (kMaxDepth) so a
// "[[[[..." bomb cannot overflow the stack, unescaped control characters
// (including NUL bytes) in strings are rejected per RFC 8259, and every
// truncation path fails with a clean one-line error instead of reading out
// of bounds.

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace xmp::core::json {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;  ///< a string's contents, or a number's literal text
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }

  [[nodiscard]] bool has(const std::string& key) const {
    return kind == Kind::Object && object.count(key) != 0;
  }
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("mini_json: missing key " + key);
    return object.at(key);
  }
};

class MiniJsonParser {
 public:
  /// Parse `text`; throws std::runtime_error with a position on any
  /// malformed input (including trailing garbage).
  static JsonValue parse(const std::string& text) {
    MiniJsonParser p{text};
    JsonValue v = p.parse_value();
    p.skip_ws();
    if (p.pos_ != text.size()) p.fail("trailing characters");
    return v;
  }

  /// Containers deeper than this are rejected ("nesting too deep"), keeping
  /// the recursive descent's stack usage bounded on hostile input.
  static constexpr std::size_t kMaxDepth = 256;

 private:
  explicit MiniJsonParser(const std::string& text) : text_{text} {}

  /// RAII nesting guard for parse_object/parse_array.
  struct DepthGuard {
    explicit DepthGuard(MiniJsonParser& p) : p_{p} {
      if (++p_.depth_ > kMaxDepth) p_.fail("nesting too deep");
    }
    ~DepthGuard() { --p_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    MiniJsonParser& p_;
  };

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("mini_json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    const DepthGuard guard{*this};
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard{*this};
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259 §7: control characters (NUL included) must be escaped.
        --pos_;
        fail("unescaped control character in string");
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': append_utf8(out, parse_codepoint()); break;
          default: fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
  }

  /// Four hex digits after a consumed "\u".
  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return v;
  }

  /// Scalar code point of one \uXXXX escape, combining a high surrogate
  /// with its mandatory low-surrogate partner (RFC 8259 §7).
  std::uint32_t parse_codepoint() {
    const std::uint32_t u = parse_hex4();
    if (u >= 0xD800 && u <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
        fail("high surrogate without \\u low surrogate");
      }
      pos_ += 2;
      const std::uint32_t lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      return 0x10000 + ((u - 0xD800) << 10) + (lo - 0xDC00);
    }
    if (u >= 0xDC00 && u <= 0xDFFF) fail("unpaired low surrogate");
    return u;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.str = text_.substr(start, pos_ - start);
    try {
      v.number = std::stod(v.str);
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// Parse an entire JSON file. Returns false (and sets *error) when the file
/// cannot be opened or does not parse.
inline bool parse_file(const std::string& path, JsonValue& out, std::string* error = nullptr) {
  std::ifstream in{path};
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    out = MiniJsonParser::parse(ss.str());
  } catch (const std::exception& e) {
    if (error != nullptr) *error = path + ": " + e.what();
    return false;
  }
  return true;
}

}  // namespace xmp::core::json
