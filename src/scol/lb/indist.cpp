#include "scol/lb/indist.h"

#include "scol/graph/bfs.h"
#include "scol/graph/iso.h"
#include "scol/planarity/planarity.h"

namespace scol {

RootedBall extract_ball(const Graph& g, Vertex v, Vertex radius,
                        BfsScratch& scratch) {
  const std::vector<Vertex> b = ball(g, v, radius, scratch);
  InducedSubgraph sub = induce(g, b, scratch);
  RootedBall out;
  out.root = sub.induced_id(v);
  out.graph = std::move(sub.graph);
  return out;
}

bool balls_embed_into(const Graph& h, const std::vector<Vertex>& h_centers,
                      const Graph& target,
                      const std::vector<Vertex>& target_centers,
                      Vertex radius) {
  std::vector<RootedBall> targets;
  targets.reserve(target_centers.size());
  BfsScratch target_scratch(target.num_vertices());
  for (Vertex c : target_centers)
    targets.push_back(extract_ball(target, c, radius, target_scratch));
  BfsScratch h_scratch(h.num_vertices());
  for (Vertex v : h_centers) {
    const RootedBall hb = extract_ball(h, v, radius, h_scratch);
    bool found = false;
    for (const RootedBall& tb : targets) {
      if (is_rooted_isomorphic(hb.graph, hb.root, tb.graph, tb.root)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool balls_are_planar(const Graph& h, const std::vector<Vertex>& h_centers,
                      Vertex radius) {
  BfsScratch scratch(h.num_vertices());
  for (Vertex v : h_centers) {
    const RootedBall b = extract_ball(h, v, radius, scratch);
    if (!is_planar(b.graph)) return false;
  }
  return true;
}

}  // namespace scol
