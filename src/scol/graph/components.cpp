#include "scol/graph/components.h"

namespace scol {

std::vector<std::vector<Vertex>> Components::groups() const {
  std::vector<std::vector<Vertex>> out(static_cast<std::size_t>(count));
  for (Vertex v = 0; v < static_cast<Vertex>(id.size()); ++v)
    out[static_cast<std::size_t>(id[v])].push_back(v);
  return out;
}

Components connected_components(const Graph& g) {
  Components c;
  c.id.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (c.id[s] >= 0) continue;
    const Vertex comp = c.count++;
    std::vector<Vertex> queue{s};
    c.id[s] = comp;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex u = queue[head];
      for (Vertex w : g.neighbors(u)) {
        if (c.id[w] < 0) {
          c.id[w] = comp;
          queue.push_back(w);
        }
      }
    }
  }
  return c;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

bool is_connected_without(const Graph& g, const std::vector<char>& removed) {
  SCOL_REQUIRE(static_cast<Vertex>(removed.size()) == g.num_vertices());
  Vertex start = -1;
  Vertex remaining = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (!removed[v]) {
      ++remaining;
      if (start < 0) start = v;
    }
  }
  if (remaining <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<Vertex> queue{start};
  seen[start] = 1;
  Vertex visited = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (Vertex w : g.neighbors(u)) {
      if (!removed[w] && !seen[w]) {
        seen[w] = 1;
        ++visited;
        queue.push_back(w);
      }
    }
  }
  return visited == remaining;
}

}  // namespace scol
