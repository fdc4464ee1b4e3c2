// Checked assertions and structured errors used across the library.
//
// SCOL_CHECK and SCOL_REQUIRE are always on (library invariants and
// user-facing precondition violations throw, so tests and callers can
// observe them); SCOL_DCHECK compiles away in NDEBUG builds.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace scol {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::invalid_argument {
 public:
  explicit PreconditionError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Thrown when an internal invariant fails (a bug in this library).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
// A precondition error is the caller's mistake and may reach a user (a
// CLI message, a served error envelope): it reads as its message alone.
[[noreturn]] inline void require_failed(const char* expr,
                                        const std::string& msg) {
  throw PreconditionError(
      msg.empty() ? std::string("requirement failed: ") + expr : msg);
}

// An internal error is a bug here: it names the expression and where it
// failed, relative to the repository root (this header's own path ends
// in src/scol/util/check.h).
[[noreturn]] inline void check_failed(const char* expr, std::string_view file,
                                      int line, const std::string& msg) {
  constexpr std::string_view self = __FILE__;
  const std::string_view root = self.substr(0, self.rfind("src/scol/util/"));
  if (file.starts_with(root)) file.remove_prefix(root.size());
  throw InternalError("SCOL_CHECK failed: " + std::string(expr) + " at " +
                      std::string(file) + ":" + std::to_string(line) +
                      (msg.empty() ? "" : " — " + msg));
}
}  // namespace detail

#define SCOL_CHECK(cond, ...)                                     \
  do {                                                            \
    if (!(cond))                                                  \
      ::scol::detail::check_failed(#cond, __FILE__, __LINE__,     \
                                   std::string("") __VA_ARGS__);  \
  } while (0)

#define SCOL_REQUIRE(cond, ...)                                   \
  do {                                                            \
    if (!(cond))                                                  \
      ::scol::detail::require_failed(#cond,                       \
                                     std::string("") __VA_ARGS__); \
  } while (0)

#ifdef NDEBUG
#define SCOL_DCHECK(cond, ...) \
  do {                         \
  } while (0)
#else
#define SCOL_DCHECK(cond, ...) SCOL_CHECK(cond, __VA_ARGS__)
#endif

}  // namespace scol
