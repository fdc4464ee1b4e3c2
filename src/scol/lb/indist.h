// Observation 2.4 (Linial) machinery.
//
// A deterministic r-round LOCAL algorithm's output at a vertex is a
// function of its labelled radius-r ball. Hence if every ball of radius
// r+1 of H is isomorphic to some ball of radius r+1 of (a graph in class)
// G, then no r-round algorithm can color G's class with fewer than chi(H)
// colors: running it on H would produce a proper coloring of H.
//
// This module verifies the ball-isomorphism premises computationally
// (rooted isomorphism, since the algorithm sits at the ball's center).
#pragma once

#include "scol/graph/bfs.h"
#include "scol/graph/graph.h"

namespace scol {

/// Extracts the induced ball of radius r around v, rooted at v, through
/// the caller's scratch for g (graph/bfs.h), so a ball costs O(ball).
struct RootedBall {
  Graph graph;
  Vertex root = 0;  // id of v inside `graph`
};
RootedBall extract_ball(const Graph& g, Vertex v, Vertex radius,
                        BfsScratch& scratch);

/// True iff for every center in h_centers, the radius-r ball of H around
/// it is rooted-isomorphic to the radius-r ball of `target` around some
/// vertex of target_centers.
bool balls_embed_into(const Graph& h, const std::vector<Vertex>& h_centers,
                      const Graph& target,
                      const std::vector<Vertex>& target_centers, Vertex radius);

/// True iff every radius-r ball of h induces a planar graph (the premise
/// of the Theorem 1.5 gadget). Checks all vertices of h_centers.
bool balls_are_planar(const Graph& h, const std::vector<Vertex>& h_centers,
                      Vertex radius);

}  // namespace scol
