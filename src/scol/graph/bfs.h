// Breadth-first search utilities: distances, truncated balls, multi-source
// BFS, eccentricity. These back both the sequential substrate and the LOCAL
// ball-collection oracle.
//
// Ball-sized searches run on a caller-owned BfsScratch: one n-sized array
// that holds -1 between calls, so each ball costs what it touches instead
// of an O(n) allocate-and-clear per call.
#pragma once

#include <vector>

#include "scol/graph/graph.h"

namespace scol {

/// Distances from `source`; unreachable vertices get -1.
std::vector<Vertex> bfs_distances(const Graph& g, Vertex source);

/// Distances from every vertex of `sources` (multi-source); -1 unreachable.
std::vector<Vertex> bfs_distances(const Graph& g,
                                  const std::vector<Vertex>& sources);

/// Reusable scratch for repeated searches on one graph of n vertices.
/// `mark` is n-sized and holds -1 between calls: each user sets entries
/// only for the vertices it reaches and resets exactly those before it
/// returns, so a search costs O(touched), never O(n). `queue` is the
/// head-index FIFO (its capacity is kept across calls). Owned by the
/// caller (one per solve or loop); not safe for concurrent use.
struct BfsScratch {
  explicit BfsScratch(Vertex n)
      : mark(static_cast<std::size_t>(n), -1) {}
  std::vector<Vertex> mark;
  std::vector<Vertex> queue;
};

/// Vertices at distance <= radius from v (the ball B_r(v) of §3), in BFS
/// order starting with v itself. radius must be >= 0. O(ball + its
/// edges); `scratch` must be sized for g.
std::vector<Vertex> ball(const Graph& g, Vertex v, Vertex radius,
                         BfsScratch& scratch);

/// Ball within the subgraph induced by `mask` (B^r_R(v) of §3). Returns an
/// empty vector when mask[v] == 0, matching the paper's convention that
/// B_R(v) is empty iff v is not in R. Same cost and scratch contract as
/// ball().
std::vector<Vertex> ball_within(const Graph& g, std::span<const char> mask,
                                Vertex v, Vertex radius, BfsScratch& scratch);

/// Eccentricity of v within its connected component (max distance).
Vertex eccentricity(const Graph& g, Vertex v);

}  // namespace scol
