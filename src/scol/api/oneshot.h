// One-shot report building: the single code path behind `scol-cli`'s
// default mode, every scol-serve response, and the load generator's
// byte-identity oracle.
//
// A OneShotSpec is the full problem statement of one run — scenario,
// algorithm, palette shape, seed, budgets — and one_shot_report() turns
// it into the exact JSON object scol-cli prints. Because all three
// binaries call THIS function, "a served response is byte-identical to
// the one-shot CLI run" is a structural property, not a test-enforced
// aspiration: there is no second serializer to drift. The campaign
// runner and the report-cache key shape lists through run_shape() and
// build_lists() too, so all three hand solve() the same lists by
// construction.
//
// Determinism notes baked into this path:
//
//  - lists never depend on leftover generator state (build_lists);
//  - `include_timing=false` zeroes wall_ms (the only nondeterministic
//    report field); scol-serve always runs in this mode and reports real
//    latencies in its envelope telemetry instead;
//  - arena metrics are per-run deltas, so a warm arena (server worker)
//    and a cold one (CLI process) report identical numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "scol/api/json.h"
#include "scol/api/params.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/util/arena.h"
#include "scol/util/executor.h"

namespace scol {

struct AlgorithmInfo;

/// A run's request.k and list assignment shape. Runs on one graph and
/// seed with equal shapes see the same lists.
struct RunShape {
  Vertex k = -1;
  const char* lists = "none";  ///< "uniform" | "random" | "none"
  Color palette = -1;          ///< random lists' palette; -1 otherwise

  bool operator==(const RunShape& o) const;
};

/// `info`'s shape for a requested k (-1 = auto, see effective_k), lists
/// mode ("uniform" | "random", else PreconditionError) and palette (<= 0
/// = 4k; PreconditionError when smaller than k) on a graph of
/// `max_degree`; lists "none" when it takes none.
RunShape run_shape(const AlgorithmInfo& info, Vertex k,
                   const std::string& lists_mode, Color palette,
                   Vertex max_degree, const ParamBag& params);

/// The lists of `shape` (not "none") on `n` vertices: {0..k-1} each, or
/// random k-subsets of the palette, a pure function of (seed, k, palette).
ListAssignment build_lists(const RunShape& shape, Vertex n,
                           std::uint64_t seed);

/// The report's scenario echo: {spec, n, m, max_degree}.
Json scenario_json(const std::string& spec, const Graph& g);

/// Everything that determines one run's report (except timing).
struct OneShotSpec {
  std::string scenario = "grid";     ///< ScenarioRegistry spec string
  std::string algorithm;             ///< AlgorithmRegistry name (required)
  Vertex k = -1;                     ///< -1 = per-algorithm auto-k
  std::string lists_mode = "uniform";  ///< "uniform" | "random"
  Color palette = -1;                ///< random-lists palette (-1 = 4k)
  std::uint64_t seed = 1;            ///< scenario + algorithm seed
  int threads = 0;                   ///< echoed; >0 = pool inside
  int shards = 0;                    ///< >0 = sharded executor with p shards
  bool exchange_metrics = true;      ///< sharded runs: report exchange telemetry
  std::int64_t round_budget = -1;
  double deadline_ms = -1.0;
  bool validate = true;
  bool with_coloring = false;
  bool include_timing = true;  ///< false → wall_ms forced to 0.0
  ParamBag params;
};

/// Exit status of a one-shot run per the CLI convention: 1 when the
/// report says kFailed, 0 otherwise (kColored and kInfeasible are both
/// answers).
int one_shot_exit_code(const Json& report);

/// The report for `spec` on an already-built graph (the serving path:
/// the graph came from the content-addressed cache). `executor`, when
/// non-null, runs the solve; `arena`, when non-null, is the scratch
/// arena to (re)use — both affect wall time only, never report bytes.
Json one_shot_report_on(const Graph& g, const OneShotSpec& spec,
                        const Executor* executor = nullptr,
                        std::shared_ptr<Arena> arena = nullptr);

/// Builds the scenario from `spec.seed`, then delegates to
/// one_shot_report_on. This is `scol-cli`'s default mode, minus printing.
Json one_shot_report(const OneShotSpec& spec);

}  // namespace scol
