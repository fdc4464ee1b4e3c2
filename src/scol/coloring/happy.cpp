#include "scol/coloring/happy.h"

#include <algorithm>
#include <atomic>

#include "scol/graph/bfs.h"
#include "scol/graph/components.h"
#include "scol/graph/gallai.h"

namespace scol {
namespace {

// Multi-source BFS marking happy[x] for all x within `limit` of `sources`
// (in graph gr). Distances live in scratch.mark and are reset for every
// reached vertex, so a call costs what it reaches.
void mark_within(const Graph& gr, const std::vector<Vertex>& sources,
                 Vertex limit, std::vector<char>& happy, BfsScratch& scratch) {
  if (sources.empty() || limit < 0) return;
  std::vector<Vertex>& dist = scratch.mark;
  std::vector<Vertex>& queue = scratch.queue;
  queue.clear();
  for (Vertex s : sources) {
    if (dist[static_cast<std::size_t>(s)] != 0) {
      dist[static_cast<std::size_t>(s)] = 0;
      happy[static_cast<std::size_t>(s)] = 1;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    if (dist[static_cast<std::size_t>(x)] == limit) continue;
    for (Vertex y : gr.neighbors(x)) {
      if (dist[static_cast<std::size_t>(y)] < 0) {
        dist[static_cast<std::size_t>(y)] = dist[static_cast<std::size_t>(x)] + 1;
        happy[static_cast<std::size_t>(y)] = 1;
        queue.push_back(y);
      }
    }
  }
  for (Vertex x : queue) dist[static_cast<std::size_t>(x)] = -1;
}

// Is the ball of radius r around v in gr non-Gallai? (The ball is
// connected, so Gallai-forest == Gallai-tree; it never leaves v's
// component, so no component mask is needed.)
bool ball_non_gallai(const Graph& gr, Vertex v, Vertex r,
                     BfsScratch& scratch) {
  const std::vector<Vertex> b = ball(gr, v, r, scratch);
  if (static_cast<Vertex>(b.size()) <= 2) return false;
  const InducedSubgraph sub = induce(gr, b, scratch);
  return !all_blocks_clique_or_odd_cycle(block_decomposition(sub.graph));
}

}  // namespace

HappyAnalysis compute_happy_set(const Graph& g, Vertex d, Vertex rho,
                                const Executor* executor) {
  SCOL_REQUIRE(d >= 1);
  const Vertex n = g.num_vertices();
  std::vector<char> rich(static_cast<std::size_t>(n), 0);
  std::vector<char> witness(static_cast<std::size_t>(n), 0);
  // Rich/degree classification: each index writes only its own masks, so
  // the pass is bit-identical under every executor.
  parallel_for_index(resolve_executor(executor), static_cast<std::size_t>(n),
                     [&](std::size_t i) {
                       const Vertex v = static_cast<Vertex>(i);
                       rich[i] = g.degree(v) <= d;
                       witness[i] = g.degree(v) <= d - 1;
                     });
  HappyAnalysis out = compute_happy_set_general(g, rich, witness, rho, executor);
  out.d = d;
  return out;
}

HappyAnalysis compute_happy_set_general(const Graph& g,
                                        const std::vector<char>& rich_mask,
                                        const std::vector<char>& witness_mask,
                                        Vertex rho,
                                        const Executor* executor) {
  SCOL_REQUIRE(rho >= 0);
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(static_cast<Vertex>(rich_mask.size()) == n);
  SCOL_REQUIRE(static_cast<Vertex>(witness_mask.size()) == n);
  HappyAnalysis out;
  out.radius = rho;
  out.rich = rich_mask;
  out.happy.assign(static_cast<std::size_t>(n), 0);

  // Rich/poor tally (chunk-local sums folded through atomics: integer
  // addition commutes, so counts are executor-independent).
  std::atomic<Vertex> num_rich{0};
  resolve_executor(executor).parallel_ranges(
      static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
        Vertex local_rich = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (rich_mask[i]) ++local_rich;
          SCOL_REQUIRE(!witness_mask[i] || rich_mask[i],
                       + "witnesses must be rich");
        }
        num_rich.fetch_add(local_rich, std::memory_order_relaxed);
      });
  out.num_rich = num_rich.load(std::memory_order_relaxed);
  out.num_poor = n - out.num_rich;

  const InducedSubgraph gr = induce(g, out.rich);
  const Vertex nr = gr.graph.num_vertices();
  std::vector<char> happy_gr(static_cast<std::size_t>(nr), 0);

  // One scratch serves every search of the pass (-1 between calls), so
  // per-ball work stays O(ball).
  BfsScratch scratch(nr);

  // Condition 1 (exact): within rho of a witness, in G[R].
  std::vector<Vertex> low_degree;
  for (Vertex x = 0; x < nr; ++x)
    if (witness_mask[static_cast<std::size_t>(
            gr.to_original[static_cast<std::size_t>(x)])])
      low_degree.push_back(x);
  mark_within(gr.graph, low_degree, rho, happy_gr, scratch);

  // Condition 2 (exact): per component of G[R].
  const Components comps = connected_components(gr.graph);
  for (const auto& comp : comps.groups()) {
    if (comp.size() <= 2) continue;  // tiny components are Gallai trees
    const InducedSubgraph cg = induce(gr.graph, comp, scratch);
    // Fast path (2): a Gallai-tree component has only Gallai balls.
    if (all_blocks_clique_or_odd_cycle(block_decomposition(cg.graph)))
      continue;
    // Fast path (3): shallow component — every ball is the whole component,
    // which is non-Gallai, so everyone is happy.
    const Vertex ecc = eccentricity(cg.graph, 0);
    if (2 * ecc <= rho) {
      for (Vertex x : comp) happy_gr[static_cast<std::size_t>(x)] = 1;
      continue;
    }
    // Escalating witness radii with monotone propagation: 1, 2, 4, ...,
    // capped at rho (the doubling never overflows: it stops at rho).
    for (Vertex rr = std::min<Vertex>(1, rho);;
         rr = rr > rho / 2 ? rho : 2 * rr) {
      std::vector<Vertex> witnesses;
      for (Vertex x : comp) {
        if (happy_gr[static_cast<std::size_t>(x)]) continue;
        if (ball_non_gallai(gr.graph, x, rr, scratch)) {
          witnesses.push_back(x);
          happy_gr[static_cast<std::size_t>(x)] = 1;
        }
      }
      // Propagate: every vertex within rho - rr of a witness is happy.
      mark_within(gr.graph, witnesses, rho - rr, happy_gr, scratch);
      if (rr == rho) break;
    }
  }

  for (Vertex x = 0; x < nr; ++x) {
    if (happy_gr[static_cast<std::size_t>(x)]) {
      out.happy[static_cast<std::size_t>(
          gr.to_original[static_cast<std::size_t>(x)])] = 1;
      ++out.num_happy;
    }
  }
  out.num_sad = out.num_rich - out.num_happy;
  return out;
}

}  // namespace scol
