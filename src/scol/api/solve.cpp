#include "scol/api/solve.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "scol/coloring/barenboim_elkin.h"
#include "scol/coloring/derived.h"
#include "scol/coloring/ert.h"
#include "scol/coloring/exact.h"
#include "scol/coloring/gps.h"
#include "scol/coloring/greedy.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/nice.h"
#include "scol/coloring/randomized.h"
#include "scol/coloring/sdr.h"
#include "scol/coloring/sparse.h"
#include "scol/coloring/sparsify.h"
#include "scol/graph/cliques.h"
#include "scol/local/shard.h"

namespace scol {
namespace {

using RunFn = std::function<ColoringReport(const ColoringRequest&, RunContext&)>;

// --- Shared request decoding helpers. ---

SparseOptions sparse_options(const ColoringRequest& req, RunContext& ctx) {
  SparseOptions opts;
  opts.ball_constant = req.params.get_real("ball_constant", opts.ball_constant);
  opts.radius_override = req.params.get_int_as("radius", opts.radius_override);
  opts.max_peels = req.params.get_int_as("max_peels", opts.max_peels);
  opts.executor = ctx.executor;
  opts.arena = &ctx.arena_ref();
  return opts;
}

// The Theorem 1.3 family's run: `solver(graph, lists, options)`, or, with
// a `param` decoder, `solver(graph, param(request), lists, options)`.
template <typename Solver>
RunFn lists_run(Solver solver) {
  return [solver](const ColoringRequest& req, RunContext& ctx) {
    return solver(*req.graph, *req.lists, sparse_options(req, ctx));
  };
}
template <typename Solver, typename Param>
RunFn lists_run(Solver solver, Param param) {
  return [solver, param](const ColoringRequest& req, RunContext& ctx) {
    return solver(*req.graph, param(req), *req.lists,
                  sparse_options(req, ctx));
  };
}

// --- One decoder per parameter. run, color_bound, precondition and
// min_k read a parameter only through its decoder, so the run and the
// probe filter cannot disagree about its value. ---

// d for the Theorem 1.3 family: a positive param d, else k, else (when
// lists are given) the min list size.
Vertex sparse_d(const ParamBag& p, Vertex k, const ListAssignment* lists) {
  const Vertex d = p.get_int_as<Vertex>("d", -1);
  if (d > 0) return d;
  if (k > 0 || lists == nullptr) return k;
  return static_cast<Vertex>(lists->min_list_size());
}

// GPS peel threshold: param threshold, else k - 1, else 6 (planar).
Vertex gps_threshold(const ParamBag& p, Vertex k) {
  return p.get_int_as<Vertex>("threshold", k > 0 ? k - 1 : 6);
}

// Promised arboricity: param arboricity, else `fallback`.
Vertex arboricity_param(const ParamBag& p, Vertex fallback) {
  return p.get_int_as<Vertex>("arboricity", fallback);
}

// Corollary 1.4's a: param arboricity, else k / 2 (k = 2a).
Vertex corollary14_a(const ParamBag& p, Vertex k) {
  return arboricity_param(p, k > 0 ? k / 2 : -1);
}

// Barenboim–Elkin's promise: arboricity (-1 when missing) and eps.
struct HPartitionParams {
  Vertex a;
  double eps;
};

HPartitionParams h_partition_params(const ParamBag& p) {
  return {arboricity_param(p, -1), p.get_real("eps", 1.0)};
}

// Promised Euler genus (-1 when missing).
Vertex genus_param(const ParamBag& p) {
  return p.get_int_as<Vertex>("genus", -1);
}

// A decoded param `key` that the run cannot do without.
Vertex required_param(const ColoringRequest& req, const char* key,
                      Vertex value) {
  SCOL_REQUIRE(value > 0, + (std::string("algorithm '") + req.algorithm +
                             "' needs param '" + key + "'"));
  return value;
}

std::int64_t node_budget(const ColoringRequest& req) {
  return req.params.get_int("node_budget", 50'000'000);
}

// Propose/resolve iteration cap: half the round budget (two LOCAL rounds
// per iteration), else `fallback`.
int iteration_cap(const RunContext& ctx, int fallback) {
  if (ctx.round_budget > 0)
    return static_cast<int>(
        std::max<std::int64_t>(1, ctx.round_budget / 2));
  return fallback;
}

std::vector<Vertex> identity_order(Vertex n) {
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  return order;
}

ColoringReport from_optional(std::optional<Coloring> c, const char* stuck) {
  if (c.has_value()) return ColoringReport::colored(std::move(*c));
  return ColoringReport::failed(stuck);
}

ColoringReport from_exact(std::optional<Coloring> c) {
  if (c.has_value()) return ColoringReport::colored(std::move(*c));
  // Exhaustive search: nullopt is a proof of infeasibility.
  ColoringReport out;
  out.status = SolveStatus::kInfeasible;
  return out;
}

AlgorithmCaps caps(bool needs_lists, bool uses_k, bool randomized,
                   bool distributed,
                   std::vector<std::string> certificate_kinds = {}) {
  AlgorithmCaps c;
  c.needs_lists = needs_lists;
  c.uses_k = uses_k;
  c.randomized = randomized;
  c.distributed = distributed;
  c.proves_infeasibility = !certificate_kinds.empty();
  c.certificate_kinds = std::move(certificate_kinds);
  return c;
}

// Exhaustive search proves infeasibility without a witness object.
AlgorithmCaps exact_caps(bool needs_lists, bool uses_k) {
  AlgorithmCaps c = caps(needs_lists, uses_k, false, false);
  c.proves_infeasibility = true;
  return c;
}

// --- Guarantee bounds for palette/degree algorithms (list algorithms get
// the distinct-list-colors default from AlgorithmRegistry::add). ---

std::int64_t max_degree_plus_one(const ColoringRequest& req) {
  return req.graph == nullptr ? -1 : req.graph->max_degree() + 1;
}

// --- Structural preconditions (AlgorithmInfo::precondition). ---
//
// Each returns "" when the probed graph (plus the effective k and the
// job's params) satisfies the algorithm's documented requirements, else
// the reason it cannot run. These are what lets a campaign over an
// arbitrary file auto-select eligible algorithms; solve() itself never
// consults them, so explicit runs still fail loudly.

std::string why_not_planar(const GraphProbe& probe) {
  switch (probe.planar) {
    case ProbeVerdict::kYes: return "";
    case ProbeVerdict::kNo: return "not planar";
    case ProbeVerdict::kUnknown:
      return "planarity unknown (n exceeds the probe's planarity limit)";
  }
  return "";
}

// Degeneracy <= d certifies that peeling at threshold d cannot stall
// (and that arboricity <= d, mad <= 2d).
std::string why_not_degenerate(const GraphProbe& probe, Vertex d,
                               const char* what) {
  if (probe.degeneracy <= d) return "";
  return std::string("degeneracy ") + std::to_string(probe.degeneracy) +
         " > " + what + " " + std::to_string(d);
}

// (deg + 1)-lists: uniform k-lists qualify iff k > max degree.
std::string why_not_deg_plus_one_lists(const EligibilityQuery& q) {
  return why_not_k(q, q.probe->max_degree + 1, "k");
}

// Greedy in degeneracy order succeeds when every list beats the
// degeneracy.
std::string why_not_degeneracy_plus_one_lists(const EligibilityQuery& q) {
  return why_not_k(q, q.probe->degeneracy + 1, "k");
}

std::string why_not_genus(Vertex genus) {
  if (genus >= 1) return "";
  return "needs param genus=... (>= 1); the probe cannot certify a genus "
         "promise";
}

// --- Palette sparsification wrappers (coloring/sparsify.h). ---
//
// Each `*-sparsified` algorithm retries its base solver on a few
// independently sampled c·log n sub-palettes and falls back to the full
// lists when every attempt fails, so the wrapper keeps the base solver's
// guarantee while usually touching a fraction of the palette. All
// sampling and solving randomness derives from one value of the
// context's seed through per-(vertex, attempt) / per-(vertex, round)
// streams — reports are bit-identical across executors and shards.

// The shared retry loop: run `attempt` on up to `attempts` sampled
// sub-assignments, else `fallback` on the full lists. The metrics bag
// records the attempt count, whether the fallback ran, and the sampled
// vs full flat palette sizes (all scheduling-independent); LOCAL rounds
// charged by attempts land in the "sparsified-attempts" ledger phase so
// rounds == ledger.total() survives the wrapping.
ColoringReport run_sparsified(
    const ColoringRequest& req, RunContext& ctx,
    const std::function<std::optional<Coloring>(
        const ListAssignment& sampled, std::uint64_t attempt_seed,
        std::int64_t* rounds)>& attempt,
    const std::function<ColoringReport()>& fallback) {
  const double c = req.params.get_real("sparsify_c", 4.0);
  const std::int64_t attempts = std::max<std::int64_t>(
      1, req.params.get_int("sparsify_attempts", 3));
  const Vertex target = sparsify_target(req.graph->num_vertices(), c);
  Rng rng = ctx.make_rng();
  const std::uint64_t root = rng.next();  // all sparsify randomness
  std::int64_t attempt_rounds = 0;
  std::int64_t attempts_run = 0;
  std::size_t sampled_colors = 0;
  std::optional<Coloring> found;
  for (std::int64_t a = 0; a < attempts && !found.has_value(); ++a) {
    const ListAssignment sampled = sparsify_palette(
        *req.lists, target, root, static_cast<std::uint64_t>(a));
    sampled_colors = sampled.flat().size();
    // Decorrelated from the sampling streams (different base seed).
    const std::uint64_t attempt_seed =
        Rng::stream(~root, static_cast<std::uint64_t>(a)).next();
    std::int64_t rounds = 0;
    found = attempt(sampled, attempt_seed, &rounds);
    attempt_rounds += rounds;
    ++attempts_run;
  }
  ColoringReport out;
  const bool fell_back = !found.has_value();
  if (found.has_value()) {
    out = ColoringReport::colored(std::move(*found));
  } else {
    out = fallback();
  }
  if (attempt_rounds > 0) out.ledger.charge("sparsified-attempts", attempt_rounds);
  out.metrics.set_int("sparsify_target", target);
  out.metrics.set_int("sparsify_attempts", attempts_run);
  out.metrics.set_int("sparsify_fallback", fell_back ? 1 : 0);
  out.metrics.set_int("sparsify_sampled_colors",
                      static_cast<std::int64_t>(sampled_colors));
  out.metrics.set_int("sparsify_full_colors",
                      static_cast<std::int64_t>(req.lists->flat().size()));
  out.sync_derived_fields();
  return out;
}

AlgorithmCaps sparsified_exact_caps() {
  AlgorithmCaps c = exact_caps(true, false);
  c.randomized = true;  // the seed drives the palette sampling
  return c;
}

}  // namespace

void register_builtin_algorithms(AlgorithmRegistry& r) {
  // --- The paper's pipeline (Theorem 1.3 and friends). ---
  r.add({"sparse",
         "Theorem 1.3: d-list-coloring for d >= max(3, mad); params: d "
         "(default k or min list size), ball_constant, radius, max_peels",
         caps(true, true, false, true, {"clique"}),
         lists_run(
             [](const Graph& g, Vertex d, const ListAssignment& lists,
                const SparseOptions& opts) {
               return report_from_sparse(list_color_sparse(g, d, lists, opts),
                                         "");
             },
             [](const ColoringRequest& req) {
               return sparse_d(req.params, req.k, req.lists);
             }),
         {},
         [](const EligibilityQuery& q) {
           const Vertex d = sparse_d(*q.params, q.k, nullptr);
           if (d < 3)
             return std::string("needs d >= 3 (param d, or k), got ") +
                    std::to_string(d);
           return why_not_degenerate(*q.probe, d, "d");
         }});
  r.add({"nice",
         "Theorem 6.1: list-coloring for nice assignments (|L(v)| >= "
         "deg(v), +1 on small-degree/clique-neighborhood vertices)",
         caps(true, false, false, true),
         lists_run(nice_list_coloring),
         {},
         // Uniform (max degree + 1)-lists are nice on every graph.
         why_not_deg_plus_one_lists});
  r.add({"planar6",
         "Corollary 2.3(1): 6-list-coloring of planar graphs",
         caps(true, false, false, true),
         lists_run(planar_six_list_coloring),
         {},
         [](const EligibilityQuery& q) { return why_not_planar(*q.probe); },
         [](const ParamBag&) { return Vertex{6}; }});
  r.add({"planar4-trianglefree",
         "Corollary 2.3(2): 4-list-coloring of triangle-free planar graphs",
         caps(true, false, false, true),
         lists_run(triangle_free_planar_four_list_coloring),
         {},
         [](const EligibilityQuery& q) {
           const std::string planar = why_not_planar(*q.probe);
           if (!planar.empty()) return planar;
           if (!q.probe->triangle_free) return std::string("has a triangle");
           return std::string();
         },
         [](const ParamBag&) { return Vertex{4}; }});
  r.add({"planar3-girth6",
         "Corollary 2.3(3): 3-list-coloring of girth >= 6 planar graphs",
         caps(true, false, false, true),
         lists_run(girth_six_planar_three_list_coloring),
         {},
         [](const EligibilityQuery& q) {
           const std::string planar = why_not_planar(*q.probe);
           if (!planar.empty()) return planar;
           if (q.probe->girth_floor < 6)
             return "girth " + std::to_string(q.probe->girth_floor) +
                    " < 6";
           return std::string();
         },
         [](const ParamBag&) { return Vertex{3}; }});
  r.add({"arboricity",
         "Corollary 1.4: 2a-list-coloring; params: arboricity (or k = 2a)",
         caps(true, true, false, true),
         lists_run(arboricity_list_coloring,
                   [](const ColoringRequest& req) {
                     return corollary14_a(req.params, req.k);
                   }),
         {},
         [](const EligibilityQuery& q) {
           const Vertex a = corollary14_a(*q.params, q.k);
           if (a < 2)
             return std::string(
                 "needs arboricity >= 2 (param arboricity, or k = 2a)");
           if (q.probe->arboricity_upper > a)
             return "certified arboricity bound " +
                    std::to_string(q.probe->arboricity_upper) +
                    " > promised arboricity " + std::to_string(a);
           return std::string();
         },
         [](const ParamBag& p) {
           const Vertex a = corollary14_a(p, -1);
           return a > 0 ? 2 * a : Vertex{-1};
         }});
  const auto required_genus = [](const ColoringRequest& req) {
    return required_param(req, "genus", genus_param(req.params));
  };
  r.add({"genus",
         "Corollary 2.11: H(gamma)-list-coloring; params: genus",
         caps(true, false, false, true),
         lists_run(genus_list_coloring, required_genus),
         {},
         [](const EligibilityQuery& q) {
           return why_not_genus(genus_param(*q.params));
         },
         [](const ParamBag& p) {
           const Vertex genus = genus_param(p);
           return genus >= 1 ? heawood_list_bound(genus) : Vertex{-1};
         }});
  r.add({"genus-sharp",
         "Corollary 2.11 (sharp): (H(gamma)-1)-list-coloring or a K_H "
         "certificate; params: genus (with 24*genus+1 a perfect square)",
         caps(true, false, false, true, {"clique"}),
         lists_run(genus_list_coloring_sharp, required_genus),
         {},
         [](const EligibilityQuery& q) {
           const Vertex genus = genus_param(*q.params);
           const std::string why = why_not_genus(genus);
           if (!why.empty()) return why;
           if (!heawood_bound_is_tight(genus))
             return "genus " + std::to_string(genus) +
                    " is not sharp (24*genus+1 must be a perfect square)";
           return std::string();
         },
         [](const ParamBag& p) {
           const Vertex genus = genus_param(p);
           if (genus < 1 || !heawood_bound_is_tight(genus))
             return Vertex{-1};
           return static_cast<Vertex>(heawood_list_bound(genus) - 1);
         }});
  r.add({"delta-list",
         "Corollary 2.1: Delta-list-coloring or a no-SDR K_{Delta+1} "
         "certificate (max degree >= 3)",
         caps(true, false, false, true, {"no-sdr-clique"}),
         lists_run(delta_list_coloring),
         {},
         [](const EligibilityQuery& q) {
           if (q.probe->max_degree < 3)
             return "max degree " + std::to_string(q.probe->max_degree) +
                    " < 3";
           return why_not_k(q, q.probe->max_degree, "k");
         }});
  r.add({"ert",
         "Constructive Theorem 1.1 (Borodin; ERT): degree-choosable "
         "coloring of a connected non-Gallai (or surplus) graph",
         caps(true, false, false, false),
         [](const ColoringRequest& req, RunContext& ctx) {
           AvailableLists avail = to_lists(*req.lists);
           return ColoringReport::colored(
               degree_choosable_coloring(*req.graph, avail, ctx.executor));
         },
         {},
         [](const EligibilityQuery& q) {
           if (!q.probe->connected) return std::string("not connected");
           // k >= max degree + 1 gives every vertex surplus, which is
           // case 1 of the construction regardless of Gallai structure.
           return why_not_deg_plus_one_lists(q);
         }});

  // --- Baselines. ---
  r.add({"randomized",
         "Randomized (deg+1)-list-coloring (paper §6): O(log n) rounds "
         "w.h.p.; seed from RunContext, iteration cap from round_budget",
         caps(true, false, true, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           Rng rng = ctx.make_rng();
           return randomized_list_coloring(*req.graph, *req.lists, rng,
                                           nullptr, ctx.executor,
                                           iteration_cap(ctx, 40'000));
         },
         {},
         why_not_deg_plus_one_lists});
  r.add({"linial",
         "Linial color reduction to a (dmax+1)-coloring (k = palette, "
         "default max degree + 1)",
         caps(false, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const Vertex dmax =
               req.k > 0 ? req.k - 1 : req.graph->max_degree();
           ColoringReport out;
           DegreeColoringResult dc = distributed_degree_coloring(
               *req.graph, dmax, &out.ledger, ctx.executor);
           out.status = SolveStatus::kColored;
           out.coloring = std::move(dc.coloring);
           out.metrics.set_int("palette", dc.palette);
           out.sync_derived_fields();
           return out;
         },
         [](const ColoringRequest& req) {
           return req.k > 0 ? req.k : max_degree_plus_one(req);
         }});
  r.add({"gps",
         "Goldberg-Plotkin-Shannon peel-and-recolor; params: threshold "
         "(default k-1, else 6 = planar)",
         caps(false, true, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           return peel_threshold_coloring(
               *req.graph, gps_threshold(req.params, req.k), ctx.executor);
         },
         [](const ColoringRequest& req) {
           return std::int64_t{gps_threshold(req.params, req.k)} + 1;
         },
         [](const EligibilityQuery& q) {
           return why_not_degenerate(*q.probe, gps_threshold(*q.params, q.k),
                                     "peel threshold");
         }});
  r.add({"barenboim-elkin",
         "Barenboim-Elkin H-partition coloring: floor((2+eps)a)+1 colors; "
         "params: arboricity, eps (default 1.0)",
         caps(false, false, false, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           const HPartitionParams h = h_partition_params(req.params);
           const Vertex a = required_param(req, "arboricity", h.a);
           ColoringReport out =
               barenboim_elkin_coloring(*req.graph, a, h.eps, ctx.executor);
           out.metrics.set_int("palette", barenboim_elkin_palette(a, h.eps));
           return out;
         },
         [](const ColoringRequest& req) {
           const HPartitionParams h = h_partition_params(req.params);
           if (h.a <= 0) return std::int64_t{-1};
           return std::int64_t{barenboim_elkin_palette(h.a, h.eps)};
         },
         [](const EligibilityQuery& q) {
           const HPartitionParams h = h_partition_params(*q.params);
           if (h.a <= 0) return std::string("needs param arboricity=...");
           // The H-partition peels at degree (2 + eps) * a; degeneracy
           // at or below that threshold certifies termination.
           const Vertex threshold = static_cast<Vertex>(
               (2.0 + h.eps) * static_cast<double>(h.a));
           return why_not_degenerate(*q.probe, threshold,
                                     "H-partition threshold");
         }});
  r.add({"greedy",
         "Sequential greedy in vertex-id order",
         caps(false, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(greedy_coloring(
               *req.graph, identity_order(req.graph->num_vertices())));
         },
         max_degree_plus_one});
  r.add({"degeneracy",
         "Greedy in reverse degeneracy order: <= floor(mad)+1 colors",
         caps(false, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(degeneracy_coloring(*req.graph));
         },
         [](const ColoringRequest& req) {
           // Deliberately recomputed (O(n + m)) rather than read off the
           // run's own order: the oracle bound must not trust the
           // algorithm it is checking.
           return static_cast<std::int64_t>(
               degeneracy_order(*req.graph).degeneracy + 1);
         }});
  r.add({"dsatur",
         "DSATUR saturation-degree heuristic",
         caps(false, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return ColoringReport::colored(dsatur_coloring(*req.graph));
         },
         max_degree_plus_one});
  r.add({"degeneracy-list",
         "Greedy list-coloring in reverse degeneracy order (succeeds when "
         "every list exceeds the degeneracy)",
         caps(true, false, false, false),
         [](const ColoringRequest& req, RunContext&) {
           return from_optional(
               degeneracy_list_coloring(*req.graph, *req.lists),
               "degeneracy greedy found a vertex with no free list color");
         },
         {},
         why_not_degeneracy_plus_one_lists});

  // --- Palette-sparsified family (arXiv:2301.06457, arXiv:2408.08256):
  // the base solvers on sampled c·log n sub-palettes, full-palette
  // fallback. Shared params: sparsify_c (default 4.0), sparsify_attempts
  // (default 3). ---
  r.add({"dplus1-sparsified",
         "Randomized (deg+1)-list-coloring on sampled c*log n "
         "sub-palettes, full-palette randomized fallback; params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3)",
         caps(true, false, true, true),
         [](const ColoringRequest& req, RunContext& ctx) {
           // Generous for the O(log n) w.h.p. regime, small enough that a
           // pathological sample costs bounded work before the next
           // sample (or the fallback) takes over.
           const int cap = iteration_cap(ctx, 1000);
           return run_sparsified(
               req, ctx,
               [&](const ListAssignment& sampled, std::uint64_t seed,
                   std::int64_t* rounds) {
                 std::int64_t iters = 0;
                 auto c = propose_resolve_coloring(
                     *req.graph, sampled, seed, ctx.executor, cap, &iters);
                 *rounds = 2 * iters;  // propose + resolve per iteration
                 return c;
               },
               [&]() {
                 Rng frng = Rng::stream(ctx.seed, 0xFA11BACC);
                 return randomized_list_coloring(*req.graph, *req.lists,
                                                 frng, nullptr, ctx.executor,
                                                 std::max(cap, 40'000));
               });
         },
         {},
         // The fallback needs (deg+1)-lists, same as `randomized`.
         why_not_deg_plus_one_lists});
  r.add({"deglist-sparsified",
         "Degeneracy-order greedy list-coloring on sampled c*log n "
         "sub-palettes, full-list degeneracy greedy fallback; params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3)",
         caps(true, false, true, false),
         [](const ColoringRequest& req, RunContext& ctx) {
           return run_sparsified(
               req, ctx,
               [&](const ListAssignment& sampled, std::uint64_t,
                   std::int64_t*) {
                 return degeneracy_list_coloring(*req.graph, sampled);
               },
               [&]() {
                 return from_optional(
                     degeneracy_list_coloring(*req.graph, *req.lists),
                     "degeneracy greedy found a vertex with no free list "
                     "color (sparsified attempts also failed)");
               });
         },
         {},
         // The fallback is `degeneracy-list`.
         why_not_degeneracy_plus_one_lists});
  r.add({"list-sparsified",
         "Exact MRV list-coloring on sampled c*log n sub-palettes, exact "
         "full-list fallback (which proves infeasibility); params: "
         "sparsify_c (default 4.0), sparsify_attempts (default 3), "
         "sparsify_node_budget (default 2e6), node_budget",
         sparsified_exact_caps(),
         [](const ColoringRequest& req, RunContext& ctx) {
           return run_sparsified(
               req, ctx,
               [&](const ListAssignment& sampled, std::uint64_t,
                   std::int64_t*) -> std::optional<Coloring> {
                 // On a sampled sub-assignment nullopt is NOT an
                 // infeasibility proof (the discarded colors could
                 // work) and a blown node budget just means the sample
                 // was hard: both fall through to the next attempt.
                 try {
                   return find_list_coloring(
                       *req.graph, sampled,
                       req.params.get_int("sparsify_node_budget",
                                          2'000'000));
                 } catch (const InternalError&) {
                   return std::nullopt;
                 }
               },
               [&]() {
                 return from_exact(find_list_coloring(
                     *req.graph, *req.lists, node_budget(req)));
               });
         },
         {}});

  // --- Exact solvers and special substrates. ---
  r.add({"exact",
         "Exact k-coloring by backtracking (k required; params: "
         "node_budget)",
         exact_caps(false, true),
         [](const ColoringRequest& req, RunContext&) {
           SCOL_REQUIRE(req.k > 0, + "algorithm 'exact' needs request.k");
           return from_exact(
               find_k_coloring(*req.graph, req.k, node_budget(req)));
         },
         [](const ColoringRequest& req) {
           return static_cast<std::int64_t>(req.k);
         },
         [](const EligibilityQuery& q) {
           return q.k > 0 ? std::string()
                          : std::string("needs request.k (the palette to "
                                        "search)");
         }});
  r.add({"exact-list",
         "Exact list-coloring by MRV backtracking (params: node_budget)",
         exact_caps(true, false),
         [](const ColoringRequest& req, RunContext&) {
           return from_exact(
               find_list_coloring(*req.graph, *req.lists, node_budget(req)));
         },
         {}});
  r.add({"sdr",
         "SDR clique coloring (Corollary 2.1 substrate): the graph must "
         "be one clique; colors by bipartite matching or certifies no SDR",
         caps(true, false, false, false, {"no-sdr-clique"}),
         [](const ColoringRequest& req, RunContext&) {
           const std::vector<Vertex> all =
               identity_order(req.graph->num_vertices());
           SCOL_REQUIRE(is_clique(*req.graph, all),
                        + "algorithm 'sdr' needs a complete graph");
           auto c = color_clique_by_sdr(*req.graph, all, *req.lists);
           if (!c.has_value())
             return ColoringReport::infeasible(all, "no-sdr-clique");
           return ColoringReport::colored(std::move(*c));
         },
         {},
         [](const EligibilityQuery& q) {
           return q.probe->complete ? std::string()
                                    : std::string("not a complete graph");
         }});
}

ColoringReport solve(const ColoringRequest& request, RunContext& ctx) {
  SCOL_REQUIRE(request.graph != nullptr, + "request needs a graph");
  const AlgorithmInfo& info =
      AlgorithmRegistry::instance().at(request.algorithm);
  if (info.caps.needs_lists) {
    SCOL_REQUIRE(request.lists != nullptr,
                 + ("algorithm '" + info.name + "' needs lists"));
    SCOL_REQUIRE(request.lists->size() == request.graph->num_vertices(),
                 + "one list per vertex");
  }

  if (ctx.telemetry) {
    TelemetryEvent ev;
    ev.kind = TelemetryEvent::Kind::kSolveStart;
    ev.algorithm = info.name;
    ctx.telemetry(ev);
  }

  // Per-run scratch lives in the context's arena: reset (not freed) at
  // the start of every run, so a reused context recycles its chunks and
  // the deltas below are this run's exact allocation profile.
  Arena& arena = ctx.arena_ref();
  arena.reset();
  const ArenaStats before = arena.stats();

  // Sharded runs additionally report the LOCAL-model exchange profile;
  // the executor's counters are cumulative, so snapshot around the run.
  const auto* sharded = dynamic_cast<const ShardedExecutor*>(ctx.executor);
  const ExchangeStats xbefore =
      sharded != nullptr ? sharded->stats() : ExchangeStats{};

  const auto start = std::chrono::steady_clock::now();
  ColoringReport report;
  try {
    report = info.run(request, ctx);
  } catch (const PreconditionError& e) {
    report = ColoringReport::failed(e.what());
  } catch (const InternalError& e) {
    report = ColoringReport::failed(e.what());
  }
  report.algorithm = info.name;
  // Only the scheduling-independent counters go in the metrics bag: the
  // campaign JSONL stream must stay bit-identical across --jobs and
  // shards, and chunk growth depends on which worker's arena a job lands
  // on (first job cold, later jobs warm).
  const ArenaStats after = arena.stats();
  report.metrics.set_int("arena_allocs", after.alloc_calls - before.alloc_calls);
  report.metrics.set_int("arena_bytes",
                         after.bytes_requested - before.bytes_requested);
  // The exchange profile is deterministic for a fixed (graph, p) but varies
  // WITH p, so it is gated behind ShardOptions::metrics: with metrics off a
  // sharded run is byte-identical to serial (what the golden sharded sweep
  // and the cross-p CI compare pin); with metrics on the LOCAL-model
  // telemetry becomes part of the report.
  if (sharded != nullptr && sharded->metrics_enabled()) {
    const ExchangeStats xafter = sharded->stats();
    const ShardPlan& plan = sharded->plan();
    const std::int64_t rounds = xafter.rounds - xbefore.rounds;
    report.metrics.set_int("shards", plan.shards);
    report.metrics.set_int("exchange_rounds", rounds);
    report.metrics.set_int("exchange_messages",
                           xafter.messages - xbefore.messages);
    report.metrics.set_int("exchange_bytes", xafter.bytes - xbefore.bytes);
    report.metrics.set_int("boundary_vertices", plan.boundary_vertices);
    report.metrics.set_int("cut_edges", plan.cut_edges);
    // Every superstep delivers the plan's boundary set, so the per-round
    // string repeats boundary_pairs for the first 32 rounds.
    std::string per_round;
    for (std::int64_t r = 0; r < std::min<std::int64_t>(rounds, 32); ++r) {
      if (!per_round.empty()) per_round += ',';
      per_round += std::to_string(plan.boundary_pairs);
    }
    if (rounds > 32) per_round += ",...";
    report.metrics.set_str("exchange_per_round", per_round);
  }
  report.sync_derived_fields();
  report.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // Budget verdicts (post-hoc: solve() cannot interrupt a kernel).
  report.round_budget_exceeded =
      ctx.round_budget >= 0 && report.rounds > ctx.round_budget;
  report.deadline_exceeded =
      ctx.deadline_ms >= 0 && report.wall_ms > ctx.deadline_ms;

  // Independent validation, never trusting the algorithm's own checks.
  // Failures demote the report in place so the ledger, rounds, wall time,
  // and budget verdicts of the offending run survive for debugging.
  if (ctx.validate && report.coloring.has_value()) {
    const char* why = nullptr;
    if (!is_proper(*request.graph, *report.coloring)) {
      why = "validation: coloring is not proper";
    } else if (request.lists != nullptr &&
               !respects_lists(*report.coloring, *request.lists)) {
      why = "validation: coloring ignores lists";
    }
    if (why != nullptr) {
      report.status = SolveStatus::kFailed;
      report.failure_reason = why;
      report.coloring.reset();
      report.colors_used = 0;
    }
  }

  if (ctx.ledger != nullptr) ctx.ledger->merge(report.ledger);

  if (ctx.telemetry) {
    for (const auto& [phase, rounds] : report.ledger.breakdown()) {
      TelemetryEvent ev;
      ev.kind = TelemetryEvent::Kind::kPhase;
      ev.algorithm = info.name;
      ev.phase = phase;
      ev.rounds = rounds;
      ctx.telemetry(ev);
    }
    TelemetryEvent ev;
    ev.kind = TelemetryEvent::Kind::kSolveEnd;
    ev.algorithm = info.name;
    ev.rounds = report.rounds;
    ev.wall_ms = report.wall_ms;
    ctx.telemetry(ev);
  }
  return report;
}

ColoringReport solve(const ColoringRequest& request) {
  RunContext ctx;
  return solve(request, ctx);
}

}  // namespace scol
