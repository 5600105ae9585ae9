// One field table per stats struct.
//
// Every stats struct a campaign reports lists its members once, in report
// order, in a static table:
//
//   template <typename F>
//   static void fields(F&& f) {
//     f({"denied"}, &Stats::denied);
//     f({"elapsed", "elapsed_ps"}, &Stats::elapsed);
//     f({"max_ref_slip_ps", nullptr, Merge::kMax}, &Stats::max_ref_slip_ps);
//   }
//
// A row names the member (`key`, also its journal key), the report key
// where that differs, and how per-channel parts merge.  merge(),
// put_report() and put_journal()/from_journal() walk the table, so a member
// added to a struct and its table reaches the fabric-wide merge, the JSON
// report and the campaign journal together.  Visitors take the row as
// `const Field&`, which lets tables write rows as braced lists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/units.hpp"

namespace dl {

/// How two parts of one stat combine (channels into a fabric, cycles into
/// a campaign).  Bools always merge as "any".
enum class Merge : std::uint8_t {
  kSum,         ///< add; picosecond totals add overflow-checked
  kMax,         ///< the worst part
  kMinNonzero,  ///< the earliest non-zero time (0 = not observed)
};

/// One row of a field table.
struct Field {
  const char* key;                ///< member name; the journal key
  const char* report = nullptr;   ///< report key, when it differs from key
  Merge merge = Merge::kSum;

  [[nodiscard]] const char* report_key() const {
    return report != nullptr ? report : key;
  }
};

namespace fields {

/// Reads the unsigned journal integer `v` as a `T`, throwing (naming
/// `field`) when it does not fit, so a decoded value never wraps.
template <typename T>
T narrow(const json::Value& v, const char* field) {
  static_assert(std::is_unsigned_v<T>);
  const std::uint64_t u = v.as_u64();
  if (u > std::numeric_limits<T>::max()) {
    throw dl::Error(std::string("journal: ") + field + " " +
                    std::to_string(u) + " is out of range");
  }
  return static_cast<T>(u);
}

/// Field-wise merge of `from` into `into` by each row's rule.
template <typename S>
void merge(S& into, const S& from) {
  S::fields([&](const Field& f, auto member) {
    auto& a = into.*member;
    const auto& b = from.*member;
    using T = std::remove_cvref_t<decltype(a)>;
    if constexpr (std::is_same_v<T, bool>) {
      a = a || b;
    } else if (f.merge == Merge::kMax) {
      a = std::max(a, b);
    } else if (f.merge == Merge::kMinNonzero) {
      if (b != 0 && (a == 0 || b < a)) a = b;
    } else if constexpr (std::is_same_v<T, Picoseconds>) {
      a = checked_ps_add(a, b);
    } else {
      a += b;
    }
  });
}

/// Writes every field of `s` into the object `v` under its report key.
template <typename S>
void put_report(json::Value& v, const S& s) {
  S::fields([&](const Field& f, auto member) { v[f.report_key()] = s.*member; });
}

template <typename S>
[[nodiscard]] json::Value report(const S& s) {
  auto v = json::Value::object();
  put_report(v, s);
  return v;
}

/// Writes every field of `s` into the object `v` under its member name.
template <typename S>
void put_journal(json::Value& v, const S& s) {
  S::fields([&](const Field& f, auto member) { v[f.key] = s.*member; });
}

template <typename S>
[[nodiscard]] json::Value to_journal(const S& s) {
  auto v = json::Value::object();
  put_journal(v, s);
  return v;
}

/// Reads every field of an `S` from the object `v`; throws dl::Error on a
/// missing key, a type mismatch or an out-of-range integer.
template <typename S>
[[nodiscard]] S from_journal(const json::Value& v) {
  S s;
  S::fields([&](const Field& f, auto member) {
    auto& out = s.*member;
    using T = std::remove_cvref_t<decltype(out)>;
    const json::Value& in = v.at(f.key);
    if constexpr (std::is_same_v<T, bool>) {
      out = in.as_bool();
    } else if constexpr (std::is_signed_v<T>) {
      static_assert(std::is_same_v<T, std::int64_t>);
      out = in.as_i64();
    } else {
      out = narrow<T>(in, f.key);
    }
  });
  return s;
}

}  // namespace fields
}  // namespace dl
