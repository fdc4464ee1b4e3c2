#include "scol/coloring/exact.h"

#include <algorithm>
#include <map>

#include "scol/graph/cliques.h"

namespace scol {
namespace {

struct KSolver {
  const Graph& g;
  Vertex k;
  std::int64_t budget;
  Coloring colors;
  std::vector<std::vector<Vertex>> sat_count;  // per vertex, per color

  bool solve(Vertex colored, Color max_used) {
    if (--budget < 0) throw InternalError("find_k_coloring: budget exceeded");
    if (colored == g.num_vertices()) return true;
    // Pick the uncolored vertex with the fewest free colors (MRV) and
    // highest degree as tiebreak.
    Vertex best = -1;
    Vertex best_free = k + 1;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (colors[static_cast<std::size_t>(v)] != kUncolored) continue;
      Vertex free = 0;
      for (Color c = 0; c < k; ++c)
        if (sat_count[static_cast<std::size_t>(v)][static_cast<std::size_t>(c)] == 0)
          ++free;
      if (free == 0) return false;
      if (free < best_free ||
          (free == best_free && g.degree(v) > g.degree(best)))
        best = v, best_free = free;
    }
    // Symmetry breaking: allow at most one brand-new color.
    const Color limit = std::min<Color>(k - 1, max_used + 1);
    for (Color c = 0; c <= limit; ++c) {
      if (sat_count[static_cast<std::size_t>(best)][static_cast<std::size_t>(c)] != 0)
        continue;
      colors[static_cast<std::size_t>(best)] = c;
      for (Vertex w : g.neighbors(best))
        ++sat_count[static_cast<std::size_t>(w)][static_cast<std::size_t>(c)];
      if (solve(colored + 1, std::max(max_used, c))) return true;
      colors[static_cast<std::size_t>(best)] = kUncolored;
      for (Vertex w : g.neighbors(best))
        --sat_count[static_cast<std::size_t>(w)][static_cast<std::size_t>(c)];
    }
    return false;
  }
};

}  // namespace

std::optional<Coloring> find_k_coloring(const Graph& g, Vertex k,
                                        std::int64_t node_budget) {
  SCOL_REQUIRE(k >= 1);
  KSolver s{g, k, node_budget, empty_coloring(g.num_vertices()),
            std::vector<std::vector<Vertex>>(
                static_cast<std::size_t>(g.num_vertices()),
                std::vector<Vertex>(static_cast<std::size_t>(k), 0))};
  if (s.solve(0, -1)) return s.colors;
  return std::nullopt;
}

Vertex chromatic_number(const Graph& g, std::int64_t node_budget) {
  if (g.num_vertices() == 0) return 0;
  if (g.num_edges() == 0) return 1;
  // Clique lower bound: grow until no clique of that size exists.
  Vertex lb = 2;
  while (lb + 1 <= g.num_vertices() && find_clique(g, lb + 1).has_value())
    ++lb;
  for (Vertex k = lb;; ++k) {
    if (find_k_coloring(g, k, node_budget).has_value()) return k;
  }
}

std::optional<Coloring> find_list_coloring(const Graph& g,
                                           const ListAssignment& lists,
                                           std::int64_t node_budget) {
  SCOL_REQUIRE(lists.size() == g.num_vertices());
  // Dense palette remap for forward-checking counters.
  std::map<Color, Color> palette;
  for (Color x : lists.flat())
    palette.try_emplace(x, static_cast<Color>(palette.size()));

  struct Solver {
    const Graph& g;
    const std::vector<std::vector<Color>>& dense_lists;  // dense color ids
    std::int64_t budget;
    Coloring dense_colors;                        // dense ids or kUncolored
    std::vector<std::vector<Vertex>> block_count; // per vertex per dense color

    bool solve(Vertex colored) {
      if (--budget < 0)
        throw InternalError("find_list_coloring: budget exceeded");
      if (colored == g.num_vertices()) return true;
      Vertex best = -1;
      Vertex best_free = -1;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (dense_colors[static_cast<std::size_t>(v)] != kUncolored) continue;
        Vertex free = 0;
        for (Color x : dense_lists[static_cast<std::size_t>(v)])
          if (block_count[static_cast<std::size_t>(v)][static_cast<std::size_t>(x)] == 0)
            ++free;
        if (free == 0) return false;
        if (best < 0 || free < best_free) best = v, best_free = free;
      }
      for (Color x : dense_lists[static_cast<std::size_t>(best)]) {
        if (block_count[static_cast<std::size_t>(best)][static_cast<std::size_t>(x)] != 0)
          continue;
        dense_colors[static_cast<std::size_t>(best)] = x;
        for (Vertex w : g.neighbors(best))
          ++block_count[static_cast<std::size_t>(w)][static_cast<std::size_t>(x)];
        if (solve(colored + 1)) return true;
        dense_colors[static_cast<std::size_t>(best)] = kUncolored;
        for (Vertex w : g.neighbors(best))
          --block_count[static_cast<std::size_t>(w)][static_cast<std::size_t>(x)];
      }
      return false;
    }
  };

  std::vector<std::vector<Color>> dense(
      static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Color x : lists.of(v))
      dense[static_cast<std::size_t>(v)].push_back(palette.at(x));

  Solver s{g, dense, node_budget, empty_coloring(g.num_vertices()),
           std::vector<std::vector<Vertex>>(
               static_cast<std::size_t>(g.num_vertices()),
               std::vector<Vertex>(palette.size(), 0))};
  if (!s.solve(0)) return std::nullopt;
  // Map dense ids back to real colors.
  std::vector<Color> back(palette.size());
  for (const auto& [real, id] : palette) back[static_cast<std::size_t>(id)] = real;
  Coloring out = empty_coloring(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    out[static_cast<std::size_t>(v)] =
        back[static_cast<std::size_t>(s.dense_colors[static_cast<std::size_t>(v)])];
  return out;
}

}  // namespace scol
