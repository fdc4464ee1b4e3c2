// AlgorithmRegistry: every coloring algorithm in the library behind one
// name-indexed table.
//
// A registration is a name, a one-line summary, capability flags (what
// the algorithm needs from the request and what its reports can contain),
// and the run function. scol::solve() dispatches through the registry;
// the CLI, benches, and tests enumerate it. Built-ins are registered
// lazily on first instance() access (safe against static-library
// dead-stripping); downstream code can add its own algorithms with add().
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scol/api/context.h"
#include "scol/api/report.h"
#include "scol/api/request.h"
#include "scol/io/probe.h"

namespace scol {

/// What AlgorithmInfo::precondition gets to look at: the structural
/// facts certified about a graph (io/probe.h) plus the per-job knobs
/// that decide list sizes — `k` is the *effective* palette-ish k (the
/// campaign's auto-k already applied; -1 when the algorithm takes none).
struct EligibilityQuery {
  const GraphProbe* probe = nullptr;
  const ParamBag* params = nullptr;
  Vertex k = -1;
};

/// Capability flags: what an algorithm needs from the request and what
/// its reports can contain.
struct AlgorithmCaps {
  bool needs_lists = false;   ///< request.lists must be set
  bool uses_k = false;        ///< reads request.k (or derives it)
  bool randomized = false;    ///< consumes RunContext::seed
  bool distributed = false;   ///< charges LOCAL rounds to the ledger
  /// True iff this algorithm can return kInfeasible reports (a proof that
  /// no solution exists — with or without a certificate object).
  bool proves_infeasibility = false;
  /// Witness kinds this algorithm's kInfeasible reports can carry (empty
  /// = its proofs, if any, are non-constructive, like exhaustive search).
  std::vector<std::string> certificate_kinds;
};

/// One registry entry: identity, capabilities, the run function, and the
/// two registered judgments about it — the color-count guarantee the
/// oracle enforces and the structural precondition the probe filter
/// evaluates.
struct AlgorithmInfo {
  std::string name;
  std::string summary;  ///< one line, includes the params it reads
  AlgorithmCaps caps;
  /// Maps (request, context) to a report; solve() wraps it with timing,
  /// budget verdicts, validation, telemetry, and ledger aggregation.
  std::function<ColoringReport(const ColoringRequest&, RunContext&)> run;
  /// Registered guarantee: an upper bound on colors_used that any kColored
  /// report for this request must respect, or -1 when the bound cannot be
  /// computed from the request alone (missing param, no guarantee). List
  /// algorithms bound by the distinct colors across the lists; palette
  /// algorithms by their palette. The campaign oracle flags every
  /// colored report that exceeds its algorithm's bound.
  std::function<std::int64_t(const ColoringRequest&)> color_bound = nullptr;
  /// Structural-precondition check against a probed graph: returns ""
  /// when the algorithm can run on such an input, else a short reason
  /// ("not planar", "needs param genus=..."). Unset = no structural
  /// requirement. solve() never consults it — explicitly requested runs
  /// still fail loudly; the campaign probe filter and `scol-cli probe`
  /// use it to auto-select eligible algorithms for arbitrary inputs.
  std::function<std::string(const EligibilityQuery&)> precondition = nullptr;
  /// Smallest uniform list size this algorithm's guarantee is stated
  /// for, given the job's params (-1 = no fixed minimum; degree-shaped
  /// minima like "deg+1 lists" are already covered by the max-degree
  /// auto-k). effective_k() raises an auto-k job's k to this, so a
  /// campaign over an arbitrary input exercises fixed-palette
  /// algorithms (planar6 needs 6-lists) without per-file curation, and
  /// algorithm_skip_reason() checks an explicit k against it once the
  /// precondition holds — preconditions never restate it.
  std::function<Vertex(const ParamBag&)> min_k = nullptr;
};

class AlgorithmRegistry {
 public:
  /// The process-wide registry, with all built-ins registered.
  static AlgorithmRegistry& instance();

  /// Registers an algorithm; throws PreconditionError on a duplicate name
  /// or a missing run function.
  void add(AlgorithmInfo info);

  const AlgorithmInfo* find(const std::string& name) const;

  /// Like find(), but throws PreconditionError listing known names.
  const AlgorithmInfo& at(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const { return algorithms_.size(); }

  const std::vector<AlgorithmInfo>& all() const { return algorithms_; }

 private:
  std::vector<AlgorithmInfo> algorithms_;
};

/// Registers every built-in algorithm (idempotent per registry; defined
/// in solve.cpp next to the wrappers it registers).
void register_builtin_algorithms(AlgorithmRegistry& registry);

/// "" when query.k >= needed, else "needs <what> >= <needed>, got <k>".
std::string why_not_k(const EligibilityQuery& query, Vertex needed,
                      const char* what);

/// Evaluates an algorithm's structural precondition, then its min_k: ""
/// when eligible (or when it declares no precondition), else the reason.
std::string algorithm_skip_reason(const AlgorithmInfo& info,
                                  const EligibilityQuery& query);

/// The per-job effective k shared by the campaign runner, `scol-cli`
/// (single-run and probe modes), and examples: an explicit k > 0 wins;
/// otherwise list-needing algorithms get max(3, max_degree + 1,
/// info.min_k(params)) and the rest keep -1 (their own defaults).
Vertex effective_k(const AlgorithmInfo& info, Vertex k, Vertex max_degree,
                   const ParamBag& params);

}  // namespace scol
