// Typed option bag for the solver API.
//
// ColoringRequest carries per-algorithm knobs (ball constants, arboricity,
// epsilon, node budgets, ...) as a ParamBag: an ordered list of
// (name, value) pairs where values are int / real / flag / string. Typed
// getters check the stored kind, so a misspelled or mistyped parameter
// fails loudly instead of silently falling back to a default. Insertion
// order is preserved, which keeps JSON serialization deterministic.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "scol/util/check.h"

namespace scol {

class ParamBag {
 public:
  using Value = std::variant<std::int64_t, double, bool, std::string>;

  bool has(const std::string& name) const { return find(name) != nullptr; }
  bool empty() const { return items_.empty(); }

  ParamBag& set(const std::string& name, Value value) {
    for (auto& [n, v] : items_) {
      if (n == name) {
        v = std::move(value);
        return *this;
      }
    }
    items_.emplace_back(name, std::move(value));
    return *this;
  }
  ParamBag& set_int(const std::string& name, std::int64_t v) {
    return set(name, Value{v});
  }
  ParamBag& set_real(const std::string& name, double v) {
    return set(name, Value{v});
  }
  ParamBag& set_flag(const std::string& name, bool v) {
    return set(name, Value{v});
  }
  ParamBag& set_str(const std::string& name, std::string v) {
    return set(name, Value{std::move(v)});
  }

  /// Typed getters: return the default when absent; throw
  /// PreconditionError when present with a different kind (get_real
  /// accepts an int and widens it).
  std::int64_t get_int(const std::string& name, std::int64_t def) const {
    const Value* v = find(name);
    if (v == nullptr) return def;
    SCOL_REQUIRE(std::holds_alternative<std::int64_t>(*v),
                 + ("param '" + name + "' is not an integer"));
    return std::get<std::int64_t>(*v);
  }
  /// get_int narrowed to Int: a value Int cannot hold is refused with a
  /// PreconditionError naming the param, never truncated.
  template <typename Int>
  Int get_int_as(const std::string& name, Int def) const {
    const std::int64_t v = get_int(name, def);
    SCOL_REQUIRE(v >= std::numeric_limits<Int>::min() &&
                     v <= std::numeric_limits<Int>::max(),
                 + ("param '" + name + "' = " + std::to_string(v) +
                    " is out of range"));
    return static_cast<Int>(v);
  }
  double get_real(const std::string& name, double def) const {
    const Value* v = find(name);
    if (v == nullptr) return def;
    if (std::holds_alternative<std::int64_t>(*v))
      return static_cast<double>(std::get<std::int64_t>(*v));
    SCOL_REQUIRE(std::holds_alternative<double>(*v),
                 + ("param '" + name + "' is not a number"));
    return std::get<double>(*v);
  }
  bool get_flag(const std::string& name, bool def) const {
    const Value* v = find(name);
    if (v == nullptr) return def;
    SCOL_REQUIRE(std::holds_alternative<bool>(*v),
                 + ("param '" + name + "' is not a flag"));
    return std::get<bool>(*v);
  }
  std::string get_str(const std::string& name, std::string def) const {
    const Value* v = find(name);
    if (v == nullptr) return def;
    SCOL_REQUIRE(std::holds_alternative<std::string>(*v),
                 + ("param '" + name + "' is not a string"));
    return std::get<std::string>(*v);
  }

  const std::vector<std::pair<std::string, Value>>& items() const {
    return items_;
  }

 private:
  const Value* find(const std::string& name) const {
    for (const auto& [n, v] : items_)
      if (n == name) return &v;
    return nullptr;
  }

  std::vector<std::pair<std::string, Value>> items_;
};

/// Parses "key=value" into the bag: value lexes as int, then real, then
/// true/false, else string. "key" alone sets a true flag. Throws
/// PreconditionError on an empty key.
void parse_param(ParamBag& bag, const std::string& key_eq_value);

}  // namespace scol
