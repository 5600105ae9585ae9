// Minimal ordered JSON document builder/reader for structured reports.
//
// The scenario runner and benches emit machine-readable campaign reports
// (CI archives them next to the google-benchmark JSON): values are built
// imperatively and serialized with dump().  Object keys keep insertion
// order so reports diff cleanly across runs.  parse() is the inverse — a
// strict recursive-descent reader used by the campaign checkpoint journal
// (src/scenario/journal.hpp) to restore completed results on resume; it
// throws dl::Error on malformed input, nesting past 128 levels included
// (the journal uses that to skip a torn or hostile line).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace dl::json {

class Value {
 public:
  Value() : data_(nullptr) {}                       // null
  Value(bool b) : data_(b) {}                       // NOLINT(google-explicit-constructor)
  Value(double d) : data_(d) {}                     // NOLINT
  /// One template covers every integer width/signedness (int, size_t,
  /// Picoseconds, ...) without the overload ambiguities a fixed int64/
  /// uint64 pair causes on platforms where size_t is a distinct type.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Value(T i) {  // NOLINT
    if constexpr (std::is_signed_v<T>) {
      data_ = static_cast<std::int64_t>(i);
    } else {
      data_ = static_cast<std::uint64_t>(i);
    }
  }
  Value(const char* s) : data_(std::string(s)) {}   // NOLINT
  Value(std::string s) : data_(std::move(s)) {}     // NOLINT

  [[nodiscard]] static Value object() {
    Value v;
    v.data_ = Object{};
    return v;
  }
  [[nodiscard]] static Value array() {
    Value v;
    v.data_ = Array{};
    return v;
  }

  /// Object member access: inserts a null member on first use.  The value
  /// must be an object (or null, which becomes an object).  The returned
  /// reference is invalidated by the next insertion into this object —
  /// build nested objects as locals and move-assign them in, rather than
  /// holding references across sibling insertions.
  Value& operator[](const std::string& key);

  /// Array append.  The value must be an array (or null, which becomes one).
  void push_back(Value v);

  [[nodiscard]] std::size_t size() const;

  /// Serializes the document.  indent = 0 emits one line; > 0 pretty-prints
  /// with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // -- reading ---------------------------------------------------------------
  // Strict parser + typed accessors; every accessor throws dl::Error on a
  // type mismatch, so journal decoding fails loudly instead of zero-filling.

  /// Parses one JSON document (trailing whitespace allowed, nothing else)
  /// nested at most 128 levels deep.
  /// Numbers parse as int64 (leading '-') / uint64 unless they carry a
  /// fraction or exponent, which parse as double — matching what dump()
  /// emits for the integer-typed Value alternatives.
  [[nodiscard]] static Value parse(const std::string& text);

  [[nodiscard]] bool is_null() const;
  [[nodiscard]] bool is_object() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_string() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// Object member access; throws when absent.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// Array element access; throws when out of range.
  [[nodiscard]] const Value& item(std::size_t i) const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_u64() const;  ///< uint64 or non-negative int64
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] double as_double() const;      ///< any numeric alternative
  [[nodiscard]] const std::string& as_string() const;

 private:
  using Object = std::vector<std::pair<std::string, Value>>;
  using Array = std::vector<Value>;
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, Object, Array>
      data_;

  void write(std::string& out, int indent, int depth) const;
};

}  // namespace dl::json
