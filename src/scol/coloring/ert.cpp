#include "scol/coloring/ert.h"

#include <algorithm>
#include <numeric>

#include "scol/coloring/small_color_set.h"
#include "scol/graph/bfs.h"
#include "scol/util/prefetch.h"
#include "scol/graph/blocks.h"
#include "scol/graph/components.h"
#include "scol/graph/gallai.h"
#include "scol/util/executor.h"

namespace scol {
namespace {

// Colors `targets` (must be currently uncolored) sequentially in decreasing
// `key` order; each picks the first avail color unused by colored
// g-neighbors. Throws InternalError if some vertex has no free color — the
// callers' orderings guarantee one.
void greedy_by_decreasing_key(const Graph& g, const std::vector<Vertex>& dist,
                              const std::vector<Vertex>& targets,
                              const AvailableLists& avail, Coloring& colors) {
  std::vector<Vertex> order = targets;
  std::sort(order.begin(), order.end(), [&](Vertex x, Vertex y) {
    if (dist[static_cast<std::size_t>(x)] != dist[static_cast<std::size_t>(y)])
      return dist[static_cast<std::size_t>(x)] > dist[static_cast<std::size_t>(y)];
    return x < y;
  });
  SmallColorSet forbidden;
  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    const Vertex v = order[oi];
    // Pull the next target's adjacency row in while this one colors.
    if (oi + 1 < order.size())
      SCOL_PREFETCH_RO(g.neighbors(order[oi + 1]).data());
    SCOL_DCHECK(colors[static_cast<std::size_t>(v)] == kUncolored);
    forbidden.clear();
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (i + kPrefetchAhead < nb.size())
        SCOL_PREFETCH_RO(
            &colors[static_cast<std::size_t>(nb[i + kPrefetchAhead])]);
      const Color cw = colors[static_cast<std::size_t>(nb[i])];
      if (cw != kUncolored) forbidden.insert(cw);
    }
    Color pick = kUncolored;
    for (Color c : avail[static_cast<std::size_t>(v)]) {
      if (!forbidden.contains(c)) {
        pick = c;
        break;
      }
    }
    SCOL_CHECK(pick != kUncolored, + "greedy order must leave a free color");
    colors[static_cast<std::size_t>(v)] = pick;
  }
}

// Case 1: surplus vertex w. Colors all uncolored vertices of the connected
// graph g.
void color_from_surplus(const Graph& g, Vertex w, const AvailableLists& avail,
                        Coloring& colors) {
  const auto dist = bfs_distances(g, w);
  std::vector<Vertex> targets;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (colors[static_cast<std::size_t>(v)] == kUncolored) targets.push_back(v);
  greedy_by_decreasing_key(g, dist, targets, avail, colors);
}

// Shrinks avail[x] by the colors of x's colored neighbors (call after
// coloring a region adjacent to x).
void shrink_avail(const Graph& g, Vertex x, AvailableLists& avail,
                  const Coloring& colors) {
  auto& list = avail[static_cast<std::size_t>(x)];
  std::vector<Color> keep;
  SmallColorSet used;
  for (Vertex w : g.neighbors(x)) {
    const Color cw = colors[static_cast<std::size_t>(w)];
    if (cw != kUncolored) used.insert(cw);
  }
  for (Color c : list)
    if (!used.contains(c)) keep.push_back(c);
  list = std::move(keep);
}

// 2-connected case on the induced block graph `b` (ids local to b) with
// avail lists `av` (sizes >= degrees). Preconditions: b is 2-connected,
// not a clique, not an odd cycle, OR some vertex has surplus.
void color_two_connected(const Graph& b, AvailableLists av, Coloring& out) {
  const Vertex n = b.num_vertices();
  SCOL_CHECK(n >= 3, + "2-connected block should have >= 3 vertices");
  Coloring colors = empty_coloring(n);

  // (a) surplus vertex.
  for (Vertex v = 0; v < n; ++v) {
    if (static_cast<Vertex>(av[static_cast<std::size_t>(v)].size()) > b.degree(v)) {
      color_from_surplus(b, v, av, colors);
      out = std::move(colors);
      return;
    }
  }

  // (b) adjacent vertices with different lists.
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v : b.neighbors(u)) {
      if (av[static_cast<std::size_t>(u)] == av[static_cast<std::size_t>(v)]) continue;
      // Some color on one side only; orient so u holds it.
      Vertex uu = u, vv = v;
      Color c = kUncolored;
      for (Color x : av[static_cast<std::size_t>(uu)]) {
        if (!list_contains(av[static_cast<std::size_t>(vv)], x)) {
          c = x;
          break;
        }
      }
      if (c == kUncolored) {
        std::swap(uu, vv);
        for (Color x : av[static_cast<std::size_t>(uu)]) {
          if (!list_contains(av[static_cast<std::size_t>(vv)], x)) {
            c = x;
            break;
          }
        }
      }
      SCOL_CHECK(c != kUncolored, + "unequal same-size lists differ somewhere");
      colors[static_cast<std::size_t>(uu)] = c;
      // Greedy toward vv through b - uu (connected: b is 2-connected).
      std::vector<char> removed(static_cast<std::size_t>(n), 0);
      removed[static_cast<std::size_t>(uu)] = 1;
      const InducedSubgraph rest = induce(
          b, [&] {
            std::vector<char> keep(static_cast<std::size_t>(n), 1);
            keep[static_cast<std::size_t>(uu)] = 0;
            return keep;
          }());
      const auto dist_rest =
          bfs_distances(rest.graph, rest.to_induced[static_cast<std::size_t>(vv)]);
      std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
      for (Vertex r = 0; r < rest.graph.num_vertices(); ++r)
        dist[static_cast<std::size_t>(rest.to_original[static_cast<std::size_t>(r)])] =
            dist_rest[static_cast<std::size_t>(r)];
      std::vector<Vertex> targets;
      for (Vertex x = 0; x < n; ++x)
        if (x != uu) targets.push_back(x);
      // vv (distance 0) goes last. Every other vertex has its BFS-parent
      // (closer to vv, colored later) uncolored at its turn; vv itself sees
      // uu's color c, which is outside av[vv], so at most deg-1 of its
      // colors are blocked.
      greedy_by_decreasing_key(b, dist, targets, av, colors);
      out = std::move(colors);
      return;
    }
  }

  // (c) all lists equal => b is r-regular with r = |list|.
  const Vertex r = static_cast<Vertex>(av[0].size());
  for (Vertex v = 0; v < n; ++v)
    SCOL_CHECK(b.degree(v) == r, + "tight equal lists force regularity");
  if (r == 2) {
    // b is a cycle; an odd cycle is excluded by the precondition, so 2-color
    // it alternately.
    SCOL_CHECK(n % 2 == 0, + "odd cycle is not degree-choosable");
    std::vector<Vertex> cyc{0};
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    seen[0] = 1;
    while (static_cast<Vertex>(cyc.size()) < n) {
      bool advanced = false;
      for (Vertex w : b.neighbors(cyc.back())) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          cyc.push_back(w);
          advanced = true;
          break;
        }
      }
      SCOL_CHECK(advanced, + "cycle traversal stuck");
    }
    const Color c0 = av[0][0], c1 = av[0][1];
    for (std::size_t i = 0; i < cyc.size(); ++i)
      colors[static_cast<std::size_t>(cyc[i])] = (i % 2 == 0) ? c0 : c1;
    out = std::move(colors);
    return;
  }

  // Lovász split: u with non-adjacent neighbors a, b2 such that
  // b - {a, b2} is connected. Exists for 2-connected, regular (r >= 3),
  // non-complete graphs.
  for (Vertex u = 0; u < n; ++u) {
    const auto nb = b.neighbors(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        const Vertex a = nb[i], b2 = nb[j];
        if (b.has_edge(a, b2)) continue;
        std::vector<char> removed(static_cast<std::size_t>(n), 0);
        removed[static_cast<std::size_t>(a)] = 1;
        removed[static_cast<std::size_t>(b2)] = 1;
        if (!is_connected_without(b, removed)) continue;
        // Color a and b2 with the same color (lists are all equal).
        const Color c = av[0][0];
        colors[static_cast<std::size_t>(a)] = c;
        colors[static_cast<std::size_t>(b2)] = c;
        // Greedy toward u in b - {a, b2}; u last sees at most r-1 distinct
        // neighbor colors (a and b2 coincide).
        std::vector<char> keep(static_cast<std::size_t>(n), 1);
        keep[static_cast<std::size_t>(a)] = 0;
        keep[static_cast<std::size_t>(b2)] = 0;
        const InducedSubgraph rest = induce(b, keep);
        const auto dist_rest =
            bfs_distances(rest.graph, rest.to_induced[static_cast<std::size_t>(u)]);
        std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
        for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
          dist[static_cast<std::size_t>(rest.to_original[static_cast<std::size_t>(x)])] =
              dist_rest[static_cast<std::size_t>(x)];
        std::vector<Vertex> targets;
        for (Vertex x = 0; x < n; ++x)
          if (x != a && x != b2) targets.push_back(x);
        greedy_by_decreasing_key(b, dist, targets, av, colors);
        out = std::move(colors);
        return;
      }
    }
  }
  throw PreconditionError(
      "degree_choosable_coloring: block is a clique or odd cycle "
      "(graph is a Gallai tree with tight lists)");
}

}  // namespace

Coloring degree_choosable_coloring(const Graph& g, const AvailableLists& avail,
                                   const Executor* executor) {
  const Vertex n = g.num_vertices();
  const Executor& exec = resolve_executor(executor);
  SCOL_REQUIRE(static_cast<Vertex>(avail.size()) == n);
  SCOL_REQUIRE(n >= 1);
  SCOL_REQUIRE(is_connected(g), + "input must be connected");
  parallel_for_index(exec, static_cast<std::size_t>(n), [&](std::size_t i) {
    SCOL_REQUIRE(std::is_sorted(avail[i].begin(), avail[i].end()),
                 + "avail lists must be sorted");
    SCOL_REQUIRE(static_cast<Vertex>(avail[i].size()) >=
                     g.degree(static_cast<Vertex>(i)),
                 + "need |avail(v)| >= deg(v)");
  });

  Coloring colors = empty_coloring(n);
  if (n == 1) {
    SCOL_REQUIRE(!avail[0].empty(), + "need at least one color");
    colors[0] = avail[0][0];
    return colors;
  }

  // Case 1: global surplus vertex — the SMALLEST one, so the parallel scan
  // (min-reduction over chunks) picks the same vertex as the serial scan.
  const std::size_t surplus =
      parallel_min_index(exec, static_cast<std::size_t>(n), [&](std::size_t i) {
        return static_cast<Vertex>(avail[i].size()) >
               g.degree(static_cast<Vertex>(i));
      });
  if (surplus < static_cast<std::size_t>(n)) {
    color_from_surplus(g, static_cast<Vertex>(surplus), avail, colors);
    return colors;
  }

  // Case 2: all tight; peel the block tree toward a non-Gallai block B*.
  const BlockDecomposition dec = block_decomposition(g);
  Vertex target_block = -1;
  for (std::size_t i = 0; i < dec.blocks.size(); ++i) {
    if (!block_is_clique(dec.blocks[i]) && !block_is_odd_cycle(dec.blocks[i])) {
      target_block = static_cast<Vertex>(i);
      break;
    }
  }
  if (target_block < 0)
    throw PreconditionError(
        "degree_choosable_coloring: Gallai tree with tight lists is not "
        "degree-choosable");

  AvailableLists av = avail;

  // Order blocks by decreasing distance from B* in the block tree. Build
  // the block tree over (block, cut-vertex) incidences.
  const Vertex nb = static_cast<Vertex>(dec.blocks.size());
  std::vector<std::vector<Vertex>> block_adj(static_cast<std::size_t>(nb));
  for (Vertex v = 0; v < n; ++v) {
    const auto& in_blocks = dec.blocks_of_vertex[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i + 1 < in_blocks.size(); ++i)
      for (std::size_t j = i + 1; j < in_blocks.size(); ++j) {
        block_adj[static_cast<std::size_t>(in_blocks[i])].push_back(in_blocks[j]);
        block_adj[static_cast<std::size_t>(in_blocks[j])].push_back(in_blocks[i]);
      }
  }
  std::vector<Vertex> bdist(static_cast<std::size_t>(nb), -1);
  std::vector<Vertex> bqueue{target_block};
  bdist[static_cast<std::size_t>(target_block)] = 0;
  for (std::size_t head = 0; head < bqueue.size(); ++head) {
    const Vertex bb = bqueue[head];
    for (Vertex cc : block_adj[static_cast<std::size_t>(bb)]) {
      if (bdist[static_cast<std::size_t>(cc)] < 0) {
        bdist[static_cast<std::size_t>(cc)] = bdist[static_cast<std::size_t>(bb)] + 1;
        bqueue.push_back(cc);
      }
    }
  }
  std::vector<Vertex> block_order(static_cast<std::size_t>(nb));
  std::iota(block_order.begin(), block_order.end(), 0);
  std::sort(block_order.begin(), block_order.end(), [&](Vertex x, Vertex y) {
    return bdist[static_cast<std::size_t>(x)] > bdist[static_cast<std::size_t>(y)];
  });

  BfsScratch scratch(n);  // relabels each block's induce in O(block)
  for (Vertex bi : block_order) {
    if (bi == target_block) continue;
    const Block& blk = dec.blocks[static_cast<std::size_t>(bi)];
    // Anchor: the unique cut vertex of blk on the path toward B*; it is the
    // vertex of blk whose (block-tree) distance is realized through a block
    // closer to B*. Equivalently: the cut vertex of blk contained in a
    // block with strictly smaller bdist.
    Vertex anchor = -1;
    for (Vertex v : blk.vertices) {
      for (Vertex ob : dec.blocks_of_vertex[static_cast<std::size_t>(v)]) {
        if (ob != bi && bdist[static_cast<std::size_t>(ob)] <
                            bdist[static_cast<std::size_t>(bi)]) {
          anchor = v;
          break;
        }
      }
      if (anchor >= 0) break;
    }
    SCOL_CHECK(anchor >= 0, + "non-target block must have an anchor");

    // Color blk - anchor greedily toward the anchor, within the block.
    const InducedSubgraph sub = induce(g, blk.vertices, scratch);
    const auto dist_sub = bfs_distances(sub.graph, sub.induced_id(anchor));
    std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
    for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
      dist[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(x)])] =
          dist_sub[static_cast<std::size_t>(x)];
    std::vector<Vertex> targets;
    for (Vertex v : blk.vertices)
      if (v != anchor) targets.push_back(v);
    greedy_by_decreasing_key(g, dist, targets, av, colors);
    shrink_avail(g, anchor, av, colors);
  }

  // Finally color B* as a 2-connected graph with the shrunken lists.
  const Block& bstar = dec.blocks[static_cast<std::size_t>(target_block)];
  const InducedSubgraph sub = induce(g, bstar.vertices, scratch);
  AvailableLists sub_av(static_cast<std::size_t>(sub.graph.num_vertices()));
  for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
    sub_av[static_cast<std::size_t>(x)] =
        av[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(x)])];
  Coloring sub_colors;
  color_two_connected(sub.graph, std::move(sub_av), sub_colors);
  for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
    colors[static_cast<std::size_t>(sub.to_original[static_cast<std::size_t>(x)])] =
        sub_colors[static_cast<std::size_t>(x)];

  return colors;
}

}  // namespace scol
