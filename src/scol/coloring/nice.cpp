#include "scol/coloring/nice.h"

#include "scol/coloring/happy.h"

namespace scol {

bool is_nice_assignment(const Graph& g, const ListAssignment& lists) {
  if (lists.size() != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex deg = g.degree(v);
    const auto need_plus_one = [&] {
      if (deg <= 2) return true;
      // Neighborhood a clique?
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i)
        for (std::size_t j = i + 1; j < nb.size(); ++j)
          if (!g.has_edge(nb[i], nb[j])) return false;
      return true;
    };
    const Vertex have = static_cast<Vertex>(lists.of(v).size());
    if (have < deg) return false;
    if (have < deg + 1 && need_plus_one()) return false;
  }
  return true;
}

ColoringReport nice_list_coloring(const Graph& g, const ListAssignment& lists,
                                  const SparseOptions& opts) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(is_nice_assignment(g, lists), + "list assignment is not nice");

  ColoringReport out = ColoringReport::colored(empty_coloring(n));
  if (n == 0) return out;
  const Vertex radius = resolve_ball_radius(n, opts);
  out.metrics.set_int("radius", radius);
  const Vertex delta = g.max_degree();

  Arena local_arena;
  Arena& arena = opts.arena != nullptr ? *opts.arena : local_arena;

  // --- Peel. Every vertex is rich; witnesses are surplus vertices. ---
  // Levels are arena-carved snapshots (the live `alive` vector keeps
  // mutating, so each level needs its own copy that survives until the
  // extension walk).
  std::vector<LevelMasks> levels;
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  Vertex alive_count = n;
  while (alive_count > 0) {
    SCOL_REQUIRE(static_cast<Vertex>(levels.size()) <= 4 * n + 16,
                 + "peel cap exceeded");
    const InducedSubgraph gi = induce(g, alive);
    const Vertex ni = gi.graph.num_vertices();
    std::vector<char> rich(static_cast<std::size_t>(ni), 1);
    std::vector<char> witness(static_cast<std::size_t>(ni), 0);
    for (Vertex x = 0; x < ni; ++x) {
      const Vertex v = gi.to_original[static_cast<std::size_t>(x)];
      witness[static_cast<std::size_t>(x)] =
          static_cast<Vertex>(lists.of(v).size()) > gi.graph.degree(x);
    }
    const HappyAnalysis ha = compute_happy_set_general(gi.graph, rich, witness,
                                                       radius, opts.executor);
    out.ledger.charge("peel-balls", radius + 2);
    if (ha.num_happy == 0) {
      throw PreconditionError(
          "nice_list_coloring: peel stalled — assignment cannot be nice");
    }
    std::span<char> lvl_alive = arena.alloc<char>(static_cast<std::size_t>(n));
    std::copy(alive.begin(), alive.end(), lvl_alive.begin());
    std::span<char> lvl_happy =
        arena.alloc_zero<char>(static_cast<std::size_t>(n));
    for (Vertex x = 0; x < ni; ++x)
      if (ha.happy[static_cast<std::size_t>(x)])
        lvl_happy[static_cast<std::size_t>(
            gi.to_original[static_cast<std::size_t>(x)])] = 1;
    // Everyone alive is rich under a nice assignment.
    levels.push_back(LevelMasks{lvl_alive, lvl_alive, lvl_happy});
    for (Vertex v = 0; v < n; ++v) {
      if (lvl_happy[static_cast<std::size_t>(v)]) {
        alive[static_cast<std::size_t>(v)] = 0;
        --alive_count;
      }
    }
  }
  out.metrics.set_int("peels", static_cast<std::int64_t>(levels.size()));

  // --- Extend. ---
  Coloring colors = empty_coloring(n);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it)
    extend_level_lemma32(g, *it, lists, std::max<Vertex>(delta, 1), radius,
                         colors, out.ledger, opts.executor, &arena);
  out.coloring = std::move(colors);
  out.sync_derived_fields();
  return out;
}

}  // namespace scol
