#include "scol/coloring/greedy.h"

#include <algorithm>
#include <set>

#include "scol/graph/cliques.h"

namespace scol {

Coloring greedy_coloring(const Graph& g, const std::vector<Vertex>& order) {
  SCOL_REQUIRE(static_cast<Vertex>(order.size()) == g.num_vertices());
  Coloring c = empty_coloring(g.num_vertices());
  std::vector<char> used;
  for (Vertex v : order) {
    used.assign(static_cast<std::size_t>(g.degree(v)) + 2, 0);
    for (Vertex w : g.neighbors(v)) {
      const Color cw = c[static_cast<std::size_t>(w)];
      if (cw >= 0 && cw < static_cast<Color>(used.size()))
        used[static_cast<std::size_t>(cw)] = 1;
    }
    Color pick = 0;
    while (used[static_cast<std::size_t>(pick)]) ++pick;
    c[static_cast<std::size_t>(v)] = pick;
  }
  return c;
}

Coloring degeneracy_coloring(const Graph& g) {
  const DegeneracyOrder d = degeneracy_order(g);
  std::vector<Vertex> order(d.order.rbegin(), d.order.rend());
  return greedy_coloring(g, order);
}

Coloring dsatur_coloring(const Graph& g) {
  const Vertex n = g.num_vertices();
  Coloring c = empty_coloring(n);
  std::vector<std::set<Color>> sat(static_cast<std::size_t>(n));
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  for (Vertex step = 0; step < n; ++step) {
    Vertex best = -1;
    for (Vertex v = 0; v < n; ++v) {
      if (done[v]) continue;
      if (best < 0 ||
          sat[static_cast<std::size_t>(v)].size() >
              sat[static_cast<std::size_t>(best)].size() ||
          (sat[static_cast<std::size_t>(v)].size() ==
               sat[static_cast<std::size_t>(best)].size() &&
           g.degree(v) > g.degree(best)))
        best = v;
    }
    Color pick = 0;
    while (sat[static_cast<std::size_t>(best)].count(pick)) ++pick;
    c[static_cast<std::size_t>(best)] = pick;
    done[best] = 1;
    for (Vertex w : g.neighbors(best)) sat[static_cast<std::size_t>(w)].insert(pick);
  }
  return c;
}

std::optional<Coloring> greedy_list_coloring(const Graph& g,
                                             const ListAssignment& lists,
                                             const std::vector<Vertex>& order) {
  SCOL_REQUIRE(lists.size() == g.num_vertices());
  Coloring c = empty_coloring(g.num_vertices());
  std::vector<std::size_t> hits;
  for (Vertex v : order) {
    const FreeColors free(lists.of(v), g.neighbors(v), c, hits);
    if (free.size() == 0) return std::nullopt;
    c[static_cast<std::size_t>(v)] = free.at(0);
  }
  return c;
}

std::optional<Coloring> degeneracy_list_coloring(const Graph& g,
                                                 const ListAssignment& lists) {
  const DegeneracyOrder d = degeneracy_order(g);
  std::vector<Vertex> order(d.order.rbegin(), d.order.rend());
  return greedy_list_coloring(g, lists, order);
}

}  // namespace scol
