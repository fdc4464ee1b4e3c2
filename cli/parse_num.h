// The flag table shared by scol-cli, scol-serve, and scol-bench-load.
//
// Each binary (and each scol-cli mode) declares its flags once, as a
// list of Flag entries: a name plus a destination or a handler, and for
// numbers a range. parse_flags walks argv left to right against that
// list and owns the mechanics: a valued flag that comes last ("needs a
// value"), an unknown flag, and any exception a value handler throws all
// become the program's usage error (message, usage text, exit 2).
//
// Numbers go through the checked decoders below, which reject empty
// values, non-numeric text, trailing junk, overflow, and out-of-range
// values with a message that names the flag. (Raw std::atoi-style parses
// turn garbage into 0 silently: `--seeds foo` ran a zero-seed campaign
// that "succeeded", `--seed -1` became an astronomically large seed.)
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace scol_cli_parse {

/// A bad command line; the message already names the flag.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The WHOLE text must be one integer. Returns "" on success, else a
/// message that names the flag.
template <typename Int>
std::string parse_integer(const std::string& text, const char* flag,
                          Int* out) {
  if (text.empty())
    return std::string(flag) + ": expected an integer, got ''";
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(first, last, *out);
  if (r.ec == std::errc::result_out_of_range)
    return std::string(flag) + ": number out of range: '" + text + "'";
  if (r.ec != std::errc())
    return std::string(flag) + ": expected an integer, got '" + text + "'";
  if (r.ptr != last)
    return std::string(flag) + ": trailing junk after the number in '" +
           text + "'";
  return "";
}

inline std::int64_t checked_int(const std::string& text, const char* flag,
                                std::int64_t min_value,
                                std::int64_t max_value) {
  std::int64_t v = 0;
  const std::string err = parse_integer(text, flag, &v);
  if (!err.empty()) throw UsageError(err);
  if (v < min_value)
    throw UsageError(std::string(flag) + ": must be >= " +
                     std::to_string(min_value) + ", got " + text);
  if (v > max_value)
    throw UsageError(std::string(flag) + ": must be <= " +
                     std::to_string(max_value) + ", got " + text);
  return v;
}

/// Seeds: any non-negative 64-bit value (a '-' is rejected up front so it
/// cannot wrap to an astronomically large unsigned seed).
inline std::uint64_t checked_seed(const std::string& text, const char* flag) {
  if (!text.empty() && text[0] == '-')
    throw UsageError(std::string(flag) + ": must be >= 0, got " + text);
  std::uint64_t v = 0;
  const std::string err = parse_integer(text, flag, &v);
  if (!err.empty()) throw UsageError(err);
  return v;
}

inline double checked_real(const std::string& text, const char* flag,
                           double min_value) {
  const std::string name(flag);
  if (text.empty()) throw UsageError(name + ": expected a number, got ''");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str())
    throw UsageError(name + ": expected a number, got '" + text + "'");
  if (*end != '\0')
    throw UsageError(name + ": trailing junk after the number in '" + text +
                     "'");
  if (errno == ERANGE)
    throw UsageError(name + ": number out of range: '" + text + "'");
  if (v < min_value)
    throw UsageError(name + ": must be >= " + std::to_string(min_value) +
                     ", got " + text);
  return v;
}

/// `--shard i/m`: both parts must be ints (errors carry the part's
/// position in the spec) with m >= 1 and 0 <= i < m.
inline void checked_shard_spec(const std::string& text, int* index,
                               int* count) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos)
    throw UsageError("--shard wants i/m, got '" + text + "'");
  std::string err =
      parse_integer(text.substr(0, slash), "--shard index", index);
  if (!err.empty()) throw UsageError(err + " (position 0 of '" + text + "')");
  err = parse_integer(text.substr(slash + 1), "--shard count", count);
  if (!err.empty())
    throw UsageError(err + " (position " + std::to_string(slash + 1) +
                     " of '" + text + "')");
  if (*count < 1)
    throw UsageError("--shard count must be >= 1, got '" + text + "'");
  if (*index < 0 || *index >= *count)
    throw UsageError("--shard index must satisfy 0 <= i < m, got '" + text +
                     "'");
}

/// A binary or mode: the prefix of its error lines and its usage text.
struct Program {
  const char* name;
  const char* usage;
};

/// "NAME: message", then the usage text, on stderr; exit 2.
[[noreturn]] inline void usage_error(const Program& program,
                                     const std::string& message) {
  std::cerr << program.name << ": " << message << "\n" << program.usage;
  std::exit(2);
}

/// One flag: a switch runs `act`; a valued flag hands the next argument
/// to `take`.
struct Flag {
  const char* name;
  std::function<void()> act;
  std::function<void(const std::string&)> take;
};

inline Flag on(const char* name, std::function<void()> act) {
  return {name, std::move(act), nullptr};
}

inline Flag set(const char* name, bool* dest, bool value) {
  return on(name, [dest, value] { *dest = value; });
}

/// Prints `text` on stdout and exits 0 (--help, --version).
inline Flag print(const char* name, std::string text) {
  return on(name, [text] {
    std::cout << text;
    std::exit(0);
  });
}

inline Flag with(const char* name,
                 std::function<void(const std::string&)> take) {
  return {name, nullptr, std::move(take)};
}

inline Flag text(const char* name, std::string* dest) {
  return with(name, [dest](const std::string& v) { *dest = v; });
}

/// The largest value of Int that an int64 holds.
template <typename Int>
constexpr std::int64_t max_of() {
  return static_cast<std::int64_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::numeric_limits<Int>::max()),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())));
}

template <typename Int>
Flag integer(const char* name, Int* dest, std::int64_t min_value,
             std::int64_t max_value = max_of<Int>()) {
  return with(name, [=](const std::string& v) {
    *dest = static_cast<Int>(checked_int(v, name, min_value, max_value));
  });
}

inline Flag seed(const char* name, std::uint64_t* dest) {
  return with(name,
              [=](const std::string& v) { *dest = checked_seed(v, name); });
}

inline Flag real(const char* name, double* dest, double min_value) {
  return with(name, [=](const std::string& v) {
    *dest = checked_real(v, name, min_value);
  });
}

/// Applies argv[first..argc) to `flags`, left to right.
inline void parse_flags(int argc, char** argv, int first,
                        const Program& program,
                        const std::vector<Flag>& flags) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&arg](const Flag& f) { return arg == f.name; });
    if (flag == flags.end())
      usage_error(program, "unknown flag '" + arg + "'");
    if (flag->act) {
      flag->act();
      continue;
    }
    if (++i == argc) usage_error(program, arg + " needs a value");
    try {
      flag->take(argv[i]);
    } catch (const UsageError& e) {
      usage_error(program, e.what());
    } catch (const std::exception& e) {
      usage_error(program, arg + ": " + e.what());
    }
  }
}

}  // namespace scol_cli_parse
