#include "scol/coloring/sparse.h"

#include <algorithm>
#include <limits>
#include <string>

#include "scol/coloring/ert.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/ruling.h"
#include "scol/coloring/small_color_set.h"
#include "scol/graph/bfs.h"
#include "scol/graph/cliques.h"
#include "scol/util/prefetch.h"

namespace scol {

Vertex resolve_ball_radius(Vertex n, const SparseOptions& opts) {
  const Vertex rho = opts.radius_override > 0
                         ? opts.radius_override
                         : paper_ball_radius(n, opts.ball_constant);
  // extend_level_lemma32 builds its ruling forest with alpha = 2·rho + 2.
  SCOL_REQUIRE(2 * std::int64_t{rho} + 2 <=
                   std::numeric_limits<Vertex>::max() / ruling_bits(n),
               + ("param 'radius' = " + std::to_string(rho) +
                  " is too large: the ruling-forest depth (2·radius + 2)·"
                  "ceil(log2 n) overflows"));
  return rho;
}

// Extends the coloring of G_i - A_i to all of G_i (Lemma 3.2). May recolor
// some vertices of G_i - A_i (as the paper allows). `aux_dmax` plays the
// role of d: it bounds degrees inside G_i[R_i] and sizes the auxiliary
// (aux_dmax+1)-coloring of H.
void extend_level_lemma32(const Graph& g, const LevelMasks& level,
                          const ListAssignment& lists, Vertex aux_dmax,
                          Vertex rho, Coloring& colors, RoundLedger& ledger,
                          const Executor* executor, Arena* arena) {
  const Vertex n = g.num_vertices();
  const Vertex d = aux_dmax;
  const Executor& exec = resolve_executor(executor);
  Arena local_arena;
  Arena& ar = arena != nullptr ? *arena : local_arena;

  // Entry invariant: alive non-happy vertices are colored; A_i uncolored.
  for (Vertex v = 0; v < n; ++v) {
    if (!level.alive[static_cast<std::size_t>(v)]) continue;
    SCOL_DCHECK((colors[static_cast<std::size_t>(v)] != kUncolored) !=
                    static_cast<bool>(level.happy[static_cast<std::size_t>(v)]),
                + "extension entry invariant");
  }

  // --- G_i[R] and the ruling forest with respect to A_i. ---
  std::span<char> rich_alive = ar.alloc<char>(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v)
    rich_alive[static_cast<std::size_t>(v)] =
        level.alive[static_cast<std::size_t>(v)] &&
        level.rich[static_cast<std::size_t>(v)];
  const InducedSubgraph gr = induce(g, rich_alive);
  const Vertex nr = gr.graph.num_vertices();

  std::vector<char> in_u(static_cast<std::size_t>(nr), 0);
  for (Vertex x = 0; x < nr; ++x)
    in_u[static_cast<std::size_t>(x)] =
        level.happy[static_cast<std::size_t>(
            gr.to_original[static_cast<std::size_t>(x)])];

  const Vertex alpha = 2 * rho + 2;
  const RulingForest rf =
      ruling_forest(gr.graph, in_u, alpha, &ledger, executor);

  // --- T: the forest vertices. Uncolor them (T ∩ S was colored). ---
  std::vector<Vertex> t_members;  // gr ids
  for (Vertex x = 0; x < nr; ++x)
    if (rf.in_forest(x)) t_members.push_back(x);
  std::span<char> in_t = ar.alloc_zero<char>(static_cast<std::size_t>(nr));
  for (Vertex x : t_members) in_t[static_cast<std::size_t>(x)] = 1;
  for (Vertex x : t_members)
    colors[static_cast<std::size_t>(
        gr.to_original[static_cast<std::size_t>(x)])] = kUncolored;

  // --- L_H: lists minus colors of colored G_i-neighbors outside T. ---
  // Flat arena layout: slot x gets capacity |L(v)| (a shrink never grows a
  // list), so the per-vertex writes are disjoint and the sweep runs under
  // the executor (bit-identical across executors).
  std::span<std::int64_t> lh_off =
      ar.alloc<std::int64_t>(static_cast<std::size_t>(nr) + 1);
  lh_off[0] = 0;
  {
    std::vector<std::int64_t> cap(static_cast<std::size_t>(nr), 0);
    for (Vertex x : t_members)
      cap[static_cast<std::size_t>(x)] = static_cast<std::int64_t>(
          lists.of(gr.to_original[static_cast<std::size_t>(x)]).size());
    for (Vertex x = 0; x < nr; ++x)
      lh_off[static_cast<std::size_t>(x) + 1] =
          lh_off[static_cast<std::size_t>(x)] + cap[static_cast<std::size_t>(x)];
  }
  std::span<Color> lh_colors = ar.alloc<Color>(
      static_cast<std::size_t>(lh_off[static_cast<std::size_t>(nr)]));
  std::span<std::int32_t> lh_len =
      ar.alloc_zero<std::int32_t>(static_cast<std::size_t>(nr));
  const auto lh = [&](Vertex x) {
    return std::span<const Color>(
        lh_colors.data() + lh_off[static_cast<std::size_t>(x)],
        static_cast<std::size_t>(lh_len[static_cast<std::size_t>(x)]));
  };
  // One forbidden-set per chunk (cleared per vertex) so the hot loop pays
  // no per-vertex heap allocation.
  exec.parallel_ranges(t_members.size(), [&](std::size_t begin,
                                             std::size_t end) {
    SmallColorSet forbidden;
    for (std::size_t ti = begin; ti < end; ++ti) {
      const Vertex x = t_members[ti];
      const Vertex v = gr.to_original[static_cast<std::size_t>(x)];
      forbidden.clear();
      Vertex deg_gi = 0, deg_h = 0;
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        // The gather chain adj[i] -> colors[adj[i]] misses on big rows;
        // hint the color a few neighbors ahead while this one is scanned.
        if (i + kPrefetchAhead < nb.size())
          SCOL_PREFETCH_RO(
              &colors[static_cast<std::size_t>(nb[i + kPrefetchAhead])]);
        const Vertex w = nb[i];
        if (!level.alive[static_cast<std::size_t>(w)]) continue;
        ++deg_gi;
        const Vertex wx = gr.to_induced[static_cast<std::size_t>(w)];
        if (wx >= 0 && in_t[static_cast<std::size_t>(wx)]) {
          ++deg_h;
          continue;
        }
        const Color cw = colors[static_cast<std::size_t>(w)];
        SCOL_DCHECK(cw != kUncolored,
                    + "outside-T alive neighbors are colored");
        forbidden.insert(cw);
      }
      Color* out = lh_colors.data() + lh_off[static_cast<std::size_t>(x)];
      std::int32_t len = 0;
      for (Color c : lists.of(v))
        if (!forbidden.contains(c)) out[len++] = c;
      lh_len[static_cast<std::size_t>(x)] = len;
      // Observation 5.1: |L_H(v)| >= |L(v)| - deg_{G_i}(v) + deg_H(v), and
      // the sweep needs the weaker |L_H(v)| >= deg_H(v).
      SCOL_CHECK(static_cast<Vertex>(len) >=
                     static_cast<Vertex>(lists.of(v).size()) - deg_gi + deg_h,
                 + "Observation 5.1 violated");
      SCOL_CHECK(static_cast<Vertex>(len) >= deg_h,
                 + "sweep capacity |L_H| >= deg_H violated");
    }
  });

  // --- (d+1)-coloring of H = G_i[T]. ---
  // One scratch serves H and every root ball below (-1 between calls).
  BfsScratch scratch(nr);
  const InducedSubgraph h = induce(gr.graph, t_members, scratch);
  const DegreeColoringResult aux =
      distributed_degree_coloring(h.graph, d, &ledger, executor, "h-coloring");

  // --- Sweep: depth from max down to 1, aux class 0..d. ---
  // Bucket vertices by (depth, class); the LOCAL schedule runs over the a
  // priori bound depth_bound x (d+1) rounds.
  std::vector<std::vector<std::vector<Vertex>>> buckets(
      static_cast<std::size_t>(rf.max_depth) + 1,
      std::vector<std::vector<Vertex>>(static_cast<std::size_t>(d) + 1));
  for (Vertex hx = 0; hx < h.graph.num_vertices(); ++hx) {
    const Vertex x = h.to_original[static_cast<std::size_t>(hx)];  // gr id
    const Vertex dep = rf.depth[static_cast<std::size_t>(x)];
    if (dep >= 1)
      buckets[static_cast<std::size_t>(dep)]
             [static_cast<std::size_t>(aux.coloring[static_cast<std::size_t>(hx)])]
                 .push_back(x);
  }
  SmallColorSet forbidden;
  for (Vertex dep = rf.max_depth; dep >= 1; --dep) {
    for (Color cls = 0; cls <= static_cast<Color>(d); ++cls) {
      for (Vertex x :
           buckets[static_cast<std::size_t>(dep)][static_cast<std::size_t>(cls)]) {
        const Vertex v = gr.to_original[static_cast<std::size_t>(x)];
        forbidden.clear();
        bool parent_uncolored = false;
        const auto nbx = gr.graph.neighbors(x);
        for (std::size_t i = 0; i < nbx.size(); ++i) {
          // Two-level gather (adj -> to_original -> colors): hint the
          // relabeling entry ahead; the color load follows next trip.
          if (i + kPrefetchAhead < nbx.size())
            SCOL_PREFETCH_RO(&gr.to_original[static_cast<std::size_t>(
                nbx[i + kPrefetchAhead])]);
          const Vertex y = nbx[i];
          if (!in_t[static_cast<std::size_t>(y)]) continue;
          const Color cy = colors[static_cast<std::size_t>(
              gr.to_original[static_cast<std::size_t>(y)])];
          if (cy == kUncolored) {
            if (y == rf.parent[static_cast<std::size_t>(x)])
              parent_uncolored = true;
          } else {
            forbidden.insert(cy);
          }
        }
        SCOL_CHECK(parent_uncolored, + "sweep: parent must still be uncolored");
        Color pick = kUncolored;
        for (Color c : lh(x)) {
          if (!forbidden.contains(c)) {
            pick = c;
            break;
          }
        }
        SCOL_CHECK(pick != kUncolored, + "sweep: free list color must exist");
        colors[static_cast<std::size_t>(v)] = pick;
      }
    }
  }
  ledger.charge("sweep",
                static_cast<std::int64_t>(rf.depth_bound) * (d + 1));

  // --- Root balls: uncolor and finish with constructive Theorem 1.1. ---
  std::vector<std::vector<Vertex>> balls;  // gr ids
  std::vector<Vertex> ball_of(static_cast<std::size_t>(nr), -1);
  for (std::size_t ri = 0; ri < rf.roots.size(); ++ri) {
    std::vector<Vertex> b = ball(gr.graph, rf.roots[ri], rho, scratch);
    for (Vertex x : b) {
      SCOL_CHECK(ball_of[static_cast<std::size_t>(x)] < 0,
                 + "root balls must be disjoint");
      ball_of[static_cast<std::size_t>(x)] = static_cast<Vertex>(ri);
    }
    balls.push_back(std::move(b));
  }
  // Non-adjacency between distinct balls.
  for (Vertex x = 0; x < nr; ++x) {
    if (ball_of[static_cast<std::size_t>(x)] < 0) continue;
    for (Vertex y : gr.graph.neighbors(x)) {
      SCOL_CHECK(ball_of[static_cast<std::size_t>(y)] < 0 ||
                     ball_of[static_cast<std::size_t>(y)] ==
                         ball_of[static_cast<std::size_t>(x)],
                 + "root balls must be pairwise non-adjacent");
    }
  }
  for (const auto& b : balls)
    for (Vertex x : b)
      colors[static_cast<std::size_t>(
          gr.to_original[static_cast<std::size_t>(x)])] = kUncolored;

  for (const auto& b : balls) {
    const InducedSubgraph bg = induce(gr.graph, b, scratch);
    AvailableLists avail(static_cast<std::size_t>(bg.graph.num_vertices()));
    for (Vertex bx = 0; bx < bg.graph.num_vertices(); ++bx) {
      const Vertex x = bg.to_original[static_cast<std::size_t>(bx)];  // gr id
      const Vertex v = gr.to_original[static_cast<std::size_t>(x)];
      forbidden.clear();
      const auto nbv = g.neighbors(v);
      for (std::size_t i = 0; i < nbv.size(); ++i) {
        if (i + kPrefetchAhead < nbv.size())
          SCOL_PREFETCH_RO(
              &colors[static_cast<std::size_t>(nbv[i + kPrefetchAhead])]);
        const Vertex w = nbv[i];
        if (!level.alive[static_cast<std::size_t>(w)]) continue;
        const Color cw = colors[static_cast<std::size_t>(w)];
        if (cw != kUncolored) forbidden.insert(cw);
      }
      auto& out = avail[static_cast<std::size_t>(bx)];
      const auto lv = lists.of(v);
      out.reserve(lv.size());
      for (Color c : lv)
        if (!forbidden.contains(c)) out.push_back(c);
      SCOL_CHECK(static_cast<Vertex>(out.size()) >= bg.graph.degree(bx),
                 + "ball lists must cover ball degrees (Obs. 5.1)");
    }
    const Coloring bc = degree_choosable_coloring(bg.graph, avail, executor);
    for (Vertex bx = 0; bx < bg.graph.num_vertices(); ++bx) {
      const Vertex v = gr.to_original[static_cast<std::size_t>(
          bg.to_original[static_cast<std::size_t>(bx)])];
      colors[static_cast<std::size_t>(v)] = bc[static_cast<std::size_t>(bx)];
    }
  }
  ledger.charge("ert-balls", 2 * static_cast<std::int64_t>(rho) + 2);

  // Exit invariant: all alive vertices colored.
  for (Vertex v = 0; v < n; ++v) {
    SCOL_CHECK(!level.alive[static_cast<std::size_t>(v)] ||
                   colors[static_cast<std::size_t>(v)] != kUncolored,
               + "extension must color all of G_i");
  }
}

SparseResult list_color_sparse(const Graph& g, Vertex d,
                               const ListAssignment& lists,
                               const SparseOptions& opts) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(d >= 3, + "Theorem 1.3 needs d >= 3");
  SCOL_REQUIRE(lists.size() == n, + "one list per vertex");
  for (Vertex v = 0; v < n; ++v)
    SCOL_REQUIRE(static_cast<Vertex>(lists.of(v).size()) >= d,
                 + "need a d-list-assignment");

  Arena local_arena;
  Arena& arena = opts.arena != nullptr ? *opts.arena : local_arena;

  SparseResult out;
  if (n == 0) {
    out.coloring = Coloring{};
    return out;
  }
  out.radius = resolve_ball_radius(n, opts);

  // --- (d+1)-clique detection: 2 rounds (the clique lies in B_1). ---
  out.ledger.charge("clique-detect", 2);
  if (auto clique = find_clique(g, d + 1)) {
    out.clique = std::move(*clique);
    return out;
  }

  // --- Peel A_1, ..., A_k. ---
  // Level masks are carved from the arena (they must survive until the
  // extension walk below; the arena is monotonic, so earlier levels stay
  // valid as later ones are allocated).
  std::vector<LevelMasks> levels;
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  Vertex alive_count = n;
  const Vertex max_peels =
      opts.max_peels > 0 ? opts.max_peels : 4 * n + 16;
  while (alive_count > 0) {
    SCOL_REQUIRE(static_cast<Vertex>(levels.size()) < max_peels,
                 + "peel cap exceeded");
    const InducedSubgraph gi = induce(g, alive);
    const HappyAnalysis ha =
        compute_happy_set(gi.graph, d, out.radius, opts.executor);
    out.ledger.charge("peel-balls", out.radius + 2);

    PeelRecord rec;
    rec.graph_size = gi.graph.num_vertices();
    rec.num_rich = ha.num_rich;
    rec.num_poor = ha.num_poor;
    rec.num_happy = ha.num_happy;
    rec.num_sad = ha.num_sad;
    out.peels.push_back(rec);

    if (ha.num_happy == 0) {
      throw PreconditionError(
          "list_color_sparse: peeling stalled (no happy vertices); the "
          "promise d >= max(3, mad(G)) must be violated");
    }

    std::span<char> lvl_alive = arena.alloc<char>(static_cast<std::size_t>(n));
    std::copy(alive.begin(), alive.end(), lvl_alive.begin());
    std::span<char> lvl_rich = arena.alloc_zero<char>(static_cast<std::size_t>(n));
    std::span<char> lvl_happy =
        arena.alloc_zero<char>(static_cast<std::size_t>(n));
    for (Vertex x = 0; x < gi.graph.num_vertices(); ++x) {
      const Vertex v = gi.to_original[static_cast<std::size_t>(x)];
      lvl_rich[static_cast<std::size_t>(v)] =
          ha.rich[static_cast<std::size_t>(x)];
      lvl_happy[static_cast<std::size_t>(v)] =
          ha.happy[static_cast<std::size_t>(x)];
    }
    levels.push_back(LevelMasks{lvl_alive, lvl_rich, lvl_happy});
    for (Vertex v = 0; v < n; ++v) {
      if (lvl_happy[static_cast<std::size_t>(v)]) {
        alive[static_cast<std::size_t>(v)] = 0;
        --alive_count;
      }
    }
  }

  // --- Extend back: i = k..1. ---
  Coloring colors = empty_coloring(n);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it)
    extend_level_lemma32(g, *it, lists, d, out.radius, colors, out.ledger,
                         opts.executor, &arena);

  out.coloring = std::move(colors);
  return out;
}

}  // namespace scol
