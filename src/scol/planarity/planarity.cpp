#include "scol/planarity/planarity.h"

#include <algorithm>
#include <optional>
#include <set>

#include "scol/graph/bfs.h"
#include "scol/graph/blocks.h"
#include "scol/graph/components.h"

namespace scol {
namespace {

// A face of the partial embedding, stored as the cyclic vertex sequence
// plus a sorted copy for O(log) membership tests. In a 2-connected plane
// graph every face boundary is a simple cycle, and we only ever embed into
// 2-connected subgraphs (a cycle, then cycle + paths).
struct Face {
  std::vector<Vertex> cycle;
  std::vector<Vertex> sorted;

  void finish() {
    sorted = cycle;
    std::sort(sorted.begin(), sorted.end());
  }
  bool contains(Vertex v) const {
    return std::binary_search(sorted.begin(), sorted.end(), v);
  }
};

// A fragment (bridge) of G relative to the embedded subgraph H: either a
// chord (edge of G between H-vertices not yet embedded) or a connected
// component of G - V(H) plus its attachment edges.
struct Fragment {
  std::vector<Vertex> attachments;       // sorted H-vertices
  std::vector<Vertex> interior;          // component vertices (empty: chord)
  Edge chord{-1, -1};
};

// Finds any cycle in g (g has a cycle since it is 2-connected with >= 3
// vertices). Iterative DFS.
std::vector<Vertex> find_cycle(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> parent(static_cast<std::size_t>(n), -2);
  std::vector<std::size_t> it(static_cast<std::size_t>(n), 0);
  for (Vertex root = 0; root < n; ++root) {
    if (parent[root] != -2) continue;
    parent[root] = -1;
    std::vector<Vertex> stack{root};
    while (!stack.empty()) {
      const Vertex v = stack.back();
      const auto nb = g.neighbors(v);
      if (it[v] >= nb.size()) {
        stack.pop_back();
        continue;
      }
      const Vertex w = nb[it[v]++];
      if (w == parent[v]) continue;
      if (parent[w] == -2) {
        parent[w] = v;
        stack.push_back(w);
      } else {
        // Found a cycle: w is an ancestor of v on the DFS stack (or a
        // cross-link within the stack); walk up from v to w.
        std::vector<Vertex> cycle{w};
        Vertex x = v;
        while (x != w && x != -1) {
          cycle.push_back(x);
          x = parent[x];
        }
        if (x == w) {
          std::reverse(cycle.begin() + 1, cycle.end());
          return cycle;
        }
        // w not an ancestor (finished vertex): ignore, keep searching.
      }
    }
  }
  throw InternalError("find_cycle: no cycle in 2-connected input");
}

// Demoucron on a single 2-connected graph with >= 4 vertices.
bool demoucron(const Graph& g) {
  const Vertex n = g.num_vertices();
  const std::int64_t m = g.num_edges();
  if (m > 3 * static_cast<std::int64_t>(n) - 6) return false;

  std::vector<char> in_h(static_cast<std::size_t>(n), 0);
  // Embedded edges, as a set of normalized pairs for O(log) lookup.
  std::set<Edge> embedded;
  auto embed_edge = [&](Vertex u, Vertex v) {
    embedded.insert({std::min(u, v), std::max(u, v)});
  };
  auto edge_embedded = [&](Vertex u, Vertex v) {
    return embedded.count({std::min(u, v), std::max(u, v)}) > 0;
  };

  std::vector<Face> faces;
  const std::vector<Vertex> cycle = find_cycle(g);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    in_h[cycle[i]] = 1;
    embed_edge(cycle[i], cycle[(i + 1) % cycle.size()]);
  }
  Face f0{cycle, {}};
  f0.finish();
  Face f1{std::vector<Vertex>(cycle.rbegin(), cycle.rend()), {}};
  f1.finish();
  faces.push_back(std::move(f0));
  faces.push_back(std::move(f1));

  std::int64_t embedded_count = static_cast<std::int64_t>(cycle.size());

  while (embedded_count < m) {
    // --- Compute fragments. ---
    std::vector<Fragment> fragments;
    // Chords.
    for (Vertex u = 0; u < n; ++u) {
      if (!in_h[u]) continue;
      for (Vertex v : g.neighbors(u)) {
        if (v > u && in_h[v] && !edge_embedded(u, v)) {
          Fragment fr;
          fr.attachments = {u, v};
          fr.chord = {u, v};
          fragments.push_back(std::move(fr));
        }
      }
    }
    // Components of G - V(H).
    std::vector<Vertex> comp(static_cast<std::size_t>(n), -1);
    Vertex num_comp = 0;
    for (Vertex s = 0; s < n; ++s) {
      if (in_h[s] || comp[s] >= 0) continue;
      const Vertex c = num_comp++;
      std::vector<Vertex> queue{s};
      comp[s] = c;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const Vertex x = queue[head];
        for (Vertex y : g.neighbors(x)) {
          if (!in_h[y] && comp[y] < 0) {
            comp[y] = c;
            queue.push_back(y);
          }
        }
      }
    }
    std::vector<Fragment> comp_frag(static_cast<std::size_t>(num_comp));
    for (Vertex v = 0; v < n; ++v) {
      if (comp[v] < 0) continue;
      auto& fr = comp_frag[static_cast<std::size_t>(comp[v])];
      fr.interior.push_back(v);
      for (Vertex w : g.neighbors(v))
        if (in_h[w]) fr.attachments.push_back(w);
    }
    for (auto& fr : comp_frag) {
      std::sort(fr.attachments.begin(), fr.attachments.end());
      fr.attachments.erase(
          std::unique(fr.attachments.begin(), fr.attachments.end()),
          fr.attachments.end());
      SCOL_CHECK(fr.attachments.size() >= 2,
                 + "2-connected input: fragment with <2 attachments");
      fragments.push_back(std::move(fr));
    }
    SCOL_CHECK(!fragments.empty(), + "unembedded edges but no fragments");

    // --- Admissible faces per fragment; pick a forced fragment if any. ---
    int chosen = -1;
    int chosen_face = -1;
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      int count = 0, last_face = -1;
      for (std::size_t fidx = 0; fidx < faces.size(); ++fidx) {
        bool ok = true;
        for (Vertex a : fragments[i].attachments)
          if (!faces[fidx].contains(a)) {
            ok = false;
            break;
          }
        if (ok) {
          ++count;
          last_face = static_cast<int>(fidx);
        }
      }
      if (count == 0) return false;  // Demoucron: certified non-planar
      if (count == 1) {
        chosen = static_cast<int>(i);
        chosen_face = last_face;
        break;
      }
      if (chosen < 0) {
        chosen = static_cast<int>(i);
        chosen_face = last_face;
      }
    }

    // --- Find a path through the fragment between two attachments. ---
    const Fragment& fr = fragments[static_cast<std::size_t>(chosen)];
    std::vector<Vertex> path;
    if (fr.interior.empty()) {
      path = {fr.chord.first, fr.chord.second};
    } else {
      // BFS inside the fragment interior from a neighbor of attachment a to
      // any other attachment b.
      const Vertex a = fr.attachments[0];
      std::vector<Vertex> par(static_cast<std::size_t>(n), -2);
      std::vector<Vertex> queue;
      for (Vertex w : g.neighbors(a)) {
        if (comp[w] == comp[fr.interior[0]] && par[w] == -2) {
          par[w] = -1;
          queue.push_back(w);
        }
      }
      Vertex hit = -1, hit_via = -1;
      for (std::size_t head = 0; head < queue.size() && hit < 0; ++head) {
        const Vertex x = queue[head];
        for (Vertex y : g.neighbors(x)) {
          if (in_h[y]) {
            if (y != a) {
              hit = y;
              hit_via = x;
              break;
            }
            continue;
          }
          if (par[y] == -2) {
            par[y] = x;
            queue.push_back(y);
          }
        }
      }
      SCOL_CHECK(hit >= 0, + "fragment path must reach a second attachment");
      std::vector<Vertex> rev{hit};
      for (Vertex x = hit_via; x != -1; x = par[x]) rev.push_back(x);
      rev.push_back(a);
      path.assign(rev.rbegin(), rev.rend());
    }

    // --- Embed `path` into the chosen face, splitting it in two. ---
    Face face = faces[static_cast<std::size_t>(chosen_face)];
    faces.erase(faces.begin() + chosen_face);
    const Vertex a = path.front();
    const Vertex b = path.back();
    std::size_t ia = 0, ib = 0;
    for (std::size_t i = 0; i < face.cycle.size(); ++i) {
      if (face.cycle[i] == a) ia = i;
      if (face.cycle[i] == b) ib = i;
    }
    const std::size_t len = face.cycle.size();
    // Arc from a forward to b (inclusive), plus reversed path interior.
    Face fa, fb;
    for (std::size_t i = ia; i != ib; i = (i + 1) % len)
      fa.cycle.push_back(face.cycle[i]);
    fa.cycle.push_back(b);
    for (std::size_t i = path.size() - 2; i >= 1; --i)
      fa.cycle.push_back(path[i]);
    // Arc from b forward to a, plus forward path interior.
    for (std::size_t i = ib; i != ia; i = (i + 1) % len)
      fb.cycle.push_back(face.cycle[i]);
    fb.cycle.push_back(a);
    for (std::size_t i = 1; i + 1 < path.size(); ++i)
      fb.cycle.push_back(path[i]);
    fa.finish();
    fb.finish();
    faces.push_back(std::move(fa));
    faces.push_back(std::move(fb));

    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      embed_edge(path[i], path[i + 1]);
      ++embedded_count;
    }
    for (Vertex v : path) in_h[v] = 1;
  }
  return true;
}

}  // namespace

bool is_planar(const Graph& g) {
  const Vertex n = g.num_vertices();
  if (n <= 4) return true;
  if (g.num_edges() > 3 * static_cast<std::int64_t>(n) - 6) return false;
  // Planar iff every block is planar.
  const BlockDecomposition blocks = block_decomposition(g);
  BfsScratch scratch(n);
  for (const Block& b : blocks.blocks) {
    if (b.vertices.size() <= 3) continue;  // edges/triangles always planar
    const InducedSubgraph sub = induce(g, b.vertices, scratch);
    if (!demoucron(sub.graph)) return false;
  }
  return true;
}

}  // namespace scol
