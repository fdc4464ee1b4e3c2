#include "scol/graph/bfs.h"

namespace scol {

std::vector<Vertex> bfs_distances(const Graph& g, Vertex source) {
  return bfs_distances(g, std::vector<Vertex>{source});
}

std::vector<Vertex> bfs_distances(const Graph& g,
                                  const std::vector<Vertex>& sources) {
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> queue;
  queue.reserve(sources.size());
  for (Vertex s : sources) {
    SCOL_REQUIRE(g.valid(s));
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (Vertex w : g.neighbors(u)) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

namespace {

// Shared body of ball / ball_within (mask empty = whole graph): BFS order
// from v with dist kept in scratch.mark, reset for every reached vertex
// before returning.
std::vector<Vertex> ball_body(const Graph& g, std::span<const char> mask,
                              Vertex v, Vertex radius, BfsScratch& scratch) {
  SCOL_REQUIRE(g.valid(v) && radius >= 0);
  std::vector<Vertex>& dist = scratch.mark;
  SCOL_REQUIRE(static_cast<Vertex>(dist.size()) == g.num_vertices());
  std::vector<Vertex> order{v};
  dist[v] = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Vertex u = order[head];
    if (dist[u] == radius) continue;
    for (Vertex w : g.neighbors(u)) {
      if (dist[w] < 0 && (mask.empty() || mask[w])) {
        dist[w] = dist[u] + 1;
        order.push_back(w);
      }
    }
  }
  for (Vertex u : order) dist[u] = -1;
  return order;
}

}  // namespace

std::vector<Vertex> ball(const Graph& g, Vertex v, Vertex radius,
                         BfsScratch& scratch) {
  return ball_body(g, {}, v, radius, scratch);
}

std::vector<Vertex> ball_within(const Graph& g, std::span<const char> mask,
                                Vertex v, Vertex radius, BfsScratch& scratch) {
  SCOL_REQUIRE(static_cast<Vertex>(mask.size()) == g.num_vertices());
  SCOL_REQUIRE(g.valid(v));
  if (!mask[v]) return {};
  return ball_body(g, mask, v, radius, scratch);
}

Vertex eccentricity(const Graph& g, Vertex v) {
  const auto dist = bfs_distances(g, v);
  Vertex ecc = 0;
  for (Vertex d : dist) ecc = std::max(ecc, d);
  return ecc;
}

}  // namespace scol
