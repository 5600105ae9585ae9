#include "common/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace dl::json {

Value& Value::operator[](const std::string& key) {
  if (std::holds_alternative<std::nullptr_t>(data_)) data_ = Object{};
  DL_REQUIRE(std::holds_alternative<Object>(data_),
             "json: operator[] on a non-object value");
  auto& obj = std::get<Object>(data_);
  for (auto& [k, v] : obj) {
    if (k == key) return v;
  }
  obj.emplace_back(key, Value{});
  return obj.back().second;
}

void Value::push_back(Value v) {
  if (std::holds_alternative<std::nullptr_t>(data_)) data_ = Array{};
  DL_REQUIRE(std::holds_alternative<Array>(data_),
             "json: push_back on a non-array value");
  std::get<Array>(data_).push_back(std::move(v));
}

std::size_t Value::size() const {
  if (const auto* a = std::get_if<Array>(&data_)) return a->size();
  if (const auto* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
  if (std::holds_alternative<std::nullptr_t>(data_)) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&data_)) {
    out += *b ? "true" : "false";
  } else if (const auto* d = std::get_if<double>(&data_)) {
    if (std::isfinite(*d)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", *d);
      out += buf;
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    out += std::to_string(*i);
  } else if (const auto* u = std::get_if<std::uint64_t>(&data_)) {
    out += std::to_string(*u);
  } else if (const auto* s = std::get_if<std::string>(&data_)) {
    write_escaped(out, *s);
  } else if (const auto* obj = std::get_if<Object>(&data_)) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : *obj) {
      if (!first) out += ',';
      first = false;
      write_newline(out, indent, depth + 1);
      write_escaped(out, k);
      out += indent > 0 ? ": " : ":";
      v.write(out, indent, depth + 1);
    }
    if (!obj->empty()) write_newline(out, indent, depth);
    out += '}';
  } else if (const auto* arr = std::get_if<Array>(&data_)) {
    out += '[';
    bool first = true;
    for (const auto& v : *arr) {
      if (!first) out += ',';
      first = false;
      write_newline(out, indent, depth + 1);
      v.write(out, indent, depth + 1);
    }
    if (!arr->empty()) write_newline(out, indent, depth);
    out += ']';
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

// ----------------------------------------------------------------- parsing

namespace {

/// Recursive-descent reader over one document.  Error messages carry the
/// byte offset so a malformed journal line is diagnosable.  Nesting is
/// capped at kMaxDepth levels, so a hostile line throws instead of
/// recursing until the stack overflows; reports nest 8 levels and journal
/// lines 6.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< objects and arrays open at pos_

  void require(bool ok, const char* what) const {
    if (!ok) {
      throw dl::Error("json: parse error at offset " + std::to_string(pos_) +
                      ": " + what);
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    require(peek() == c, "unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    skip_ws();
    require(pos_ < text_.size(), "unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': {
        require(depth_ < kMaxDepth, "nesting too deep");
        ++depth_;
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't': require(consume_literal("true"), "bad literal");
                return Value(true);
      case 'f': require(consume_literal("false"), "bad literal");
                return Value(false);
      case 'n': require(consume_literal("null"), "bad literal");
                return Value();
      default:  return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      require(peek() == '"', "expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.push_back(parse_value());
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
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out += '"';  break;
        case '\\': out += '\\'; break;
        case '/':  out += '/';  break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              require(false, "bad hex digit in \\u escape");
            }
          }
          // BMP code points only (the writer never emits surrogates).
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
          break;
        }
        default: require(false, "unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_float = false;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_float = true;
        ++pos_;
      } else {
        break;
      }
    }
    require(pos_ > start, "expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    // Strict JSON: no leading zeros ("01") and no bare sign ("-").
    const std::size_t first_digit = tok[0] == '-' ? 1 : 0;
    require(tok.size() > first_digit, "bad number");
    require(tok[first_digit] != '0' || tok.size() == first_digit + 1 ||
                tok[first_digit + 1] == '.' || tok[first_digit + 1] == 'e' ||
                tok[first_digit + 1] == 'E',
            "bad number");
    char* end = nullptr;
    errno = 0;
    if (is_float) {
      const double d = std::strtod(tok.c_str(), &end);
      require(end == tok.c_str() + tok.size() && errno == 0, "bad number");
      return Value(d);
    }
    if (tok[0] == '-') {
      const long long i = std::strtoll(tok.c_str(), &end, 10);
      require(end == tok.c_str() + tok.size() && errno == 0, "bad number");
      return Value(static_cast<std::int64_t>(i));
    }
    const unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
    require(end == tok.c_str() + tok.size() && errno == 0, "bad number");
    return Value(static_cast<std::uint64_t>(u));
  }
};

}  // namespace

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Value::is_null() const {
  return std::holds_alternative<std::nullptr_t>(data_);
}
bool Value::is_object() const { return std::holds_alternative<Object>(data_); }
bool Value::is_array() const { return std::holds_alternative<Array>(data_); }
bool Value::is_string() const {
  return std::holds_alternative<std::string>(data_);
}

const Value* Value::find(const std::string& key) const {
  const auto* obj = std::get_if<Object>(&data_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  DL_REQUIRE(v != nullptr, "json: missing object member '" + key + "'");
  return *v;
}

const Value& Value::item(std::size_t i) const {
  const auto* arr = std::get_if<Array>(&data_);
  DL_REQUIRE(arr != nullptr && i < arr->size(),
             "json: array index out of range");
  return (*arr)[i];
}

bool Value::as_bool() const {
  const auto* b = std::get_if<bool>(&data_);
  DL_REQUIRE(b != nullptr, "json: value is not a bool");
  return *b;
}

std::uint64_t Value::as_u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    DL_REQUIRE(*i >= 0, "json: negative value where unsigned expected");
    return static_cast<std::uint64_t>(*i);
  }
  throw dl::Error("json: value is not an integer");
}

std::int64_t Value::as_i64() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) {
    DL_REQUIRE(*u <= static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()),
               "json: unsigned value overflows int64");
    return static_cast<std::int64_t>(*u);
  }
  throw dl::Error("json: value is not an integer");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&data_)) {
    return static_cast<double>(*u);
  }
  throw dl::Error("json: value is not a number");
}

const std::string& Value::as_string() const {
  const auto* s = std::get_if<std::string>(&data_);
  DL_REQUIRE(s != nullptr, "json: value is not a string");
  return *s;
}

}  // namespace dl::json
