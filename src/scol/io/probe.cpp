#include "scol/io/probe.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "scol/flow/density.h"
#include "scol/graph/bfs.h"
#include "scol/graph/cliques.h"
#include "scol/graph/components.h"
#include "scol/graph/girth.h"
#include "scol/planarity/planarity.h"
#include "scol/util/rng.h"

namespace scol {

const char* to_string(ProbeVerdict verdict) {
  switch (verdict) {
    case ProbeVerdict::kNo: return "no";
    case ProbeVerdict::kYes: return "yes";
    case ProbeVerdict::kUnknown: return "unknown";
  }
  return "unknown";
}

namespace {

// Sampled mode: certified-but-weaker facts without ever walking the full
// edge set. Only O(n) scans (degrees, the induced-sample relabel) and
// work proportional to the sample touch the graph, which keeps the probe
// sub-second on 100M-edge inputs.
GraphProbe probe_sampled(const Graph& g, const ProbeOptions& options,
                         GraphProbe p) {
  p.sampled = true;
  // Bounds that need only the degree array: every graph is
  // max_degree-degenerate, so Δ certifies the same chain of facts the
  // exact peel does (mad <= 2Δ, arboricity <= Δ), just more loosely.
  p.degeneracy = p.max_degree;
  p.degeneracy_exact = false;
  p.mad_upper = 2.0 * static_cast<double>(p.max_degree);
  p.mad_exact = false;
  p.arboricity_upper = p.max_degree;
  p.arboricity_exact = false;
  // Connectivity is a full-traversal fact; report the conservative
  // unknowns (campaign preconditions read them as "not certified").
  p.components = 0;
  p.connected = false;
  p.forest = false;
  p.complete = 2 * p.m == static_cast<std::int64_t>(p.n) *
                              static_cast<std::int64_t>(p.n - 1);

  // Deterministic induced sample, keyed on (n, m) so the probe stays a
  // pure function of the graph: any induced subgraph's exact degeneracy
  // is a certified lower bound on the host's. The 32768 cap keeps the
  // peel bounded independently of how large a budget the caller grants —
  // the budget says when to sample, not how hard to work.
  const std::int64_t want = std::min<std::int64_t>(
      p.n, std::min<std::int64_t>(
               32768, std::max<std::int64_t>(256, options.budget / 8)));
  std::vector<Vertex> sample;
  if (want >= p.n) {
    sample.resize(static_cast<std::size_t>(p.n));
    std::iota(sample.begin(), sample.end(), Vertex{0});
  } else {
    Rng rng = Rng::stream(static_cast<std::uint64_t>(p.n),
                          static_cast<std::uint64_t>(p.m));
    std::unordered_set<Vertex> picked;
    picked.reserve(static_cast<std::size_t>(want) * 2);
    sample.reserve(static_cast<std::size_t>(want));
    // The draw cap only matters when `want` nears n; a short sample is
    // still a valid certificate, so hitting it just weakens the bound.
    const std::int64_t cap = 32 * want + 1024;
    std::int64_t draws = 0;
    while (static_cast<std::int64_t>(sample.size()) < want && draws++ < cap) {
      const auto v =
          static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(p.n)));
      if (picked.insert(v).second) sample.push_back(v);
    }
  }
  BfsScratch scratch(p.n);
  const InducedSubgraph sub = induce(g, sample, scratch);
  p.degeneracy_lower = degeneracy_order(sub.graph).degeneracy;

  // Work-capped triangle scan over the host adjacency, walking the
  // sampled vertices' wedges: no simple graph has girth < 3, so one
  // found triangle pins the girth exactly. Exhausting the cap (or the
  // sample) without a hit certifies only the trivial floor — unlike the
  // exact path, girth = -1 here means "not scanned", not "> limit".
  bool triangle = false;
  std::int64_t work = std::max<std::int64_t>(options.budget, std::int64_t{1}
                                                                 << 20);
  std::unordered_set<Vertex> nbrs;
  for (const Vertex v : sample) {
    if (triangle || work <= 0) break;
    nbrs.clear();
    for (const Vertex u : g.neighbors(v)) nbrs.insert(u);
    work -= g.degree(v);
    for (const Vertex u : g.neighbors(v)) {
      if (triangle || work <= 0) break;
      for (const Vertex w : g.neighbors(u)) {
        if (--work <= 0) break;
        if (w != v && nbrs.count(w) != 0) {
          triangle = true;
          break;
        }
      }
    }
  }
  p.girth = triangle ? 3 : -1;
  p.girth_floor = 3;
  p.triangle_free = false;  // would need the full scan to certify

  p.planar = ProbeVerdict::kUnknown;
  return p;
}

}  // namespace

GraphProbe probe_graph(const Graph& g, const ProbeOptions& options) {
  GraphProbe p;
  p.n = g.num_vertices();
  p.m = g.num_edges();
  p.max_degree = g.max_degree();
  if (options.budget > 0 &&
      static_cast<std::int64_t>(p.n) + p.m > options.budget)
    return probe_sampled(g, options, std::move(p));
  p.degeneracy = degeneracy_order(g).degeneracy;
  p.degeneracy_exact = true;
  p.degeneracy_lower = p.degeneracy;

  const Components comps = connected_components(g);
  p.components = comps.count;
  p.connected = comps.count <= 1;
  p.forest = p.m == static_cast<std::int64_t>(p.n) -
                        static_cast<std::int64_t>(p.components);
  p.complete = 2 * p.m == static_cast<std::int64_t>(p.n) *
                              static_cast<std::int64_t>(p.n - 1);

  if (p.n <= options.exact_mad_limit) {
    p.mad_upper = maximum_average_degree(g).value();
    p.mad_exact = true;
    p.arboricity_upper = arboricity_exact(g);
    p.arboricity_exact = true;
  } else {
    p.mad_upper = 2.0 * static_cast<double>(p.degeneracy);
    p.mad_exact = false;
    p.arboricity_upper = p.degeneracy;
    p.arboricity_exact = false;
  }

  // The scan limit is clamped to >= 3: a shallower scan could not tell
  // "no triangle found" from "did not look", and triangle_free must be
  // a certified fact.
  const Vertex girth_limit = std::max<Vertex>(3, options.girth_limit);
  p.girth = p.forest ? -1 : girth(g, girth_limit);
  p.girth_floor = p.girth > 0 ? p.girth : girth_limit + 1;
  p.triangle_free = p.girth != 3;

  if (p.n <= options.planarity_limit)
    p.planar = is_planar(g) ? ProbeVerdict::kYes : ProbeVerdict::kNo;
  else
    p.planar = ProbeVerdict::kUnknown;
  return p;
}

std::string describe(const GraphProbe& p) {
  std::ostringstream os;
  os << "n=" << p.n << " m=" << p.m << " maxdeg=" << p.max_degree
     << " degeneracy" << (p.degeneracy_exact ? "=" : "<=") << p.degeneracy;
  if (p.sampled) os << " degeneracy>=" << p.degeneracy_lower;
  os << " mad<=" << p.mad_upper
     << (p.mad_exact ? " (exact)" : " (peel bound)")
     << " arboricity<=" << p.arboricity_upper << " components=";
  if (p.sampled)
    os << "?";
  else
    os << p.components;
  os << (p.forest ? " forest" : "")
     << (p.complete ? " complete" : "")
     << " girth>=" << p.girth_floor;
  if (p.girth > 0) os << " (girth=" << p.girth << ")";
  os << (p.triangle_free ? " triangle-free" : "")
     << " planar=" << to_string(p.planar);
  if (p.sampled) os << " sampled";
  return os.str();
}

}  // namespace scol
