// Error handling primitives shared by all dram_locker libraries.
//
// The library throws `dl::Error` (derived from std::runtime_error) for
// violated preconditions and unrecoverable configuration mistakes.  Hot-path
// invariants use DL_ASSERT which compiles to a check in all build types --
// a memory simulator that silently corrupts state is worse than a slow one.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dl {

/// Exception type thrown for all precondition / configuration violations.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// `file` from its last `src/` component on, so a message names the same
/// location whatever directory the tree was built in.  Paths without one
/// are returned whole.
[[nodiscard]] inline std::string_view source_path(std::string_view file) {
  const std::size_t pos = file.rfind("/src/");
  if (pos != std::string_view::npos) return file.substr(pos + 1);
  return file;
}

[[noreturn]] inline void raise(const char* file, int line, const char* expr,
                               const std::string& msg) {
  std::ostringstream os;
  os << source_path(file) << ":" << line << ": requirement failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace dl

/// Precondition check: throws dl::Error with file/line context on failure.
#define DL_REQUIRE(expr, msg)                                   \
  do {                                                          \
    if (!(expr)) ::dl::detail::raise(__FILE__, __LINE__, #expr, (msg)); \
  } while (false)

/// Internal invariant check; active in every build type.
#define DL_ASSERT(expr) DL_REQUIRE(expr, "internal invariant")
