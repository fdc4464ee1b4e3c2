// ScenarioRegistry: every graph generator in gen/* behind one
// name-indexed table, drivable from a flat textual spec.
//
// A scenario spec is "name" or "name:key=val,key=val", e.g.
//   "grid:rows=20,cols=20"   "regular:n=512,d=4"   "petersen"
//   "file:path=examples/graphs/grotzsch.col"
// Values lex as int / real / flag / string (see parse_param). Every
// scenario has defaults, so the bare name always builds — except "file",
// which needs a path= (there is no default graph file); randomized
// families draw from the Rng the caller passes (deterministic per seed).
//
// This is the CLI's --gen vocabulary and the fixture source for the
// registry round-trip tests. "file" (backed by io/, see docs/FORMATS.md)
// is how real DIMACS / METIS / Matrix Market / edge-list instances enter
// solve(), the CLI, and campaign grids.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scol/api/params.h"
#include "scol/graph/graph.h"
#include "scol/util/rng.h"

namespace scol {

struct ScenarioInfo {
  std::string name;
  std::string summary;  ///< family + the params it reads with defaults
  /// Every param key this scenario reads. Specs naming any other key are
  /// rejected by parse_scenario_spec/build_scenario — a misspelled
  /// "rows=40" must not silently fall back to the default.
  std::vector<std::string> keys;
  std::function<Graph(const ParamBag&, Rng&)> build;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry, with all gen/* families registered.
  static ScenarioRegistry& instance();

  void add(ScenarioInfo info);
  const ScenarioInfo* find(const std::string& name) const;
  /// Like find(), but throws PreconditionError listing known names.
  const ScenarioInfo& at(const std::string& name) const;
  std::vector<std::string> names() const;
  std::size_t size() const { return scenarios_.size(); }
  const std::vector<ScenarioInfo>& all() const { return scenarios_; }

 private:
  std::vector<ScenarioInfo> scenarios_;
};

/// Splits "name:key=val,..." into (name, params). Malformed specs (empty
/// name, empty segment, empty key or value, bad lex) throw
/// PreconditionError naming the offending character offset; unknown-key
/// rejection happens against the registry in validate_scenario_spec /
/// build_scenario, which know the scenario's key set.
std::pair<std::string, ParamBag> parse_scenario_spec(const std::string& spec);

/// Full spec check without building: parses, resolves the scenario, and
/// rejects params outside ScenarioInfo::keys. Returns (name, params).
std::pair<std::string, ParamBag> validate_scenario_spec(
    const std::string& spec);

/// True for a "file" spec, whose graph ignores the Rng (every seed reads
/// the same file). Reads only the name, so the spec must be valid.
bool is_file_spec(const std::string& spec);

/// Validates the spec (as above), then builds the graph.
Graph build_scenario(const std::string& spec, Rng& rng);

}  // namespace scol
