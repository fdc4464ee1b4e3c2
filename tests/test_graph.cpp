// Graph core: construction, CSR invariants, BFS, components, induce,
// permute, degeneracy, cliques, girth, isomorphism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/bfs.h"
#include "scol/graph/cliques.h"
#include "scol/graph/components.h"
#include "scol/graph/girth.h"
#include "scol/graph/graph.h"
#include "scol/graph/iso.h"

namespace scol {
namespace {

TEST(Graph, BuildAndDegrees) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 0}}), PreconditionError);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), PreconditionError);
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), PreconditionError);
}

TEST(Graph, BuilderDeduplicates) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Graph, NeighborsSorted) {
  Rng rng(7);
  const Graph g = gnm(40, 120, rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  }
}

TEST(Graph, EdgesRoundTrip) {
  Rng rng(9);
  const Graph g = gnm(30, 60, rng);
  const Graph h = Graph::from_edges(30, g.edges());
  EXPECT_EQ(g.edges(), h.edges());
}

TEST(Bfs, DistancesOnPath) {
  const Graph p = path(5);
  const auto d = bfs_distances(p, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[static_cast<std::size_t>(v)], v);
}

TEST(Bfs, BallContents) {
  const Graph p = path(7);
  BfsScratch scratch(7);
  const auto b = ball(p, 3, 2, scratch);
  std::vector<Vertex> sorted(b.begin(), b.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Vertex>{1, 2, 3, 4, 5}));
}

TEST(Bfs, BallWithinMask) {
  const Graph p = path(7);
  std::vector<char> mask(7, 1);
  mask[2] = 0;  // cut the path
  BfsScratch scratch(7);
  const auto b = ball_within(p, mask, 3, 5, scratch);
  std::vector<Vertex> sorted(b.begin(), b.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Vertex>{3, 4, 5, 6}));
  EXPECT_TRUE(ball_within(p, mask, 2, 3, scratch).empty());  // center masked out
}

TEST(Bfs, MultiSource) {
  const Graph p = path(9);
  const auto d = bfs_distances(p, std::vector<Vertex>{0, 8});
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(d[7], 1);
}

// Reference ball: a fresh n-sized distance array per call, BFS order from
// v (mask == nullptr means the whole graph).
std::vector<Vertex> reference_ball(const Graph& g, const std::vector<char>* mask,
                                   Vertex v, Vertex radius) {
  const auto keep = [&](Vertex x) {
    return mask == nullptr || (*mask)[static_cast<std::size_t>(x)];
  };
  if (!keep(v)) return {};
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> order{v};
  dist[static_cast<std::size_t>(v)] = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Vertex u = order[head];
    if (dist[static_cast<std::size_t>(u)] == radius) continue;
    for (Vertex w : g.neighbors(u)) {
      if (keep(w) && dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
        order.push_back(w);
      }
    }
  }
  return order;
}

// One scratch serves a long mixed sequence of ball / ball_within / induce
// calls (masked-out centers and radius 0 included); every call equals a
// fresh reference, and the scratch is back at -1 after each.
TEST(BfsScratch, ReuseMatchesFreshReference) {
  Rng rng(20261017);
  for (int trial = 0; trial < 8; ++trial) {
    const Vertex n = 20 + static_cast<Vertex>(rng.below(60));
    const Graph g = gnm(n, n / 2 + static_cast<std::int64_t>(rng.below(
                                       2 * static_cast<std::uint64_t>(n))),
                        rng);
    std::vector<char> mask(static_cast<std::size_t>(n));
    for (char& m : mask) m = rng.below(4) != 0;
    const std::vector<Vertex> clean(static_cast<std::size_t>(n), -1);
    BfsScratch scratch(n);
    int masked_centers = 0;
    for (int call = 0; call < 300; ++call) {
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      const Vertex r = static_cast<Vertex>(rng.below(5));
      switch (call % 3) {
        case 0:
          EXPECT_EQ(ball(g, v, r, scratch), reference_ball(g, nullptr, v, r));
          break;
        case 1:
          masked_centers += !mask[static_cast<std::size_t>(v)];
          EXPECT_EQ(ball_within(g, mask, v, r, scratch),
                    reference_ball(g, &mask, v, r));
          break;
        default: {
          const std::vector<Vertex> b = reference_ball(g, nullptr, v, r);
          const InducedSubgraph sub = induce(g, b, scratch);
          std::vector<char> keep(static_cast<std::size_t>(n), 0);
          for (Vertex x : b) keep[static_cast<std::size_t>(x)] = 1;
          const InducedSubgraph ref = induce(g, keep);
          EXPECT_EQ(sub.to_original, ref.to_original);
          EXPECT_EQ(sub.graph.edges(), ref.graph.edges());
          EXPECT_TRUE(sub.to_induced.empty());
          for (Vertex x = 0; x < n; ++x)
            EXPECT_EQ(sub.induced_id(x), ref.to_induced[static_cast<std::size_t>(x)]);
        }
      }
      ASSERT_EQ(scratch.mark, clean) << "trial " << trial << " call " << call;
    }
    EXPECT_GT(masked_centers, 0);
    EXPECT_EQ(ball(g, 0, 0, scratch), std::vector<Vertex>{0});
    // A refused induce leaves the scratch clean too.
    EXPECT_THROW(induce(g, std::vector<Vertex>{1, 2, 1}, scratch),
                 PreconditionError);
    EXPECT_THROW(induce(g, std::vector<Vertex>{0, n}, scratch),
                 PreconditionError);
    EXPECT_EQ(scratch.mark, clean);
  }
}

TEST(Components, CountsAndGroups) {
  const Graph g = disjoint_union(cycle(3), path(4));
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 2);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle(5)));
}

TEST(Components, ConnectedWithout) {
  const Graph p = path(5);
  std::vector<char> removed(5, 0);
  removed[2] = 1;
  EXPECT_FALSE(is_connected_without(p, removed));
  const Graph c = cycle(5);
  std::vector<char> removed2(5, 0);
  removed2[2] = 1;
  EXPECT_TRUE(is_connected_without(c, removed2));
}

TEST(Induce, MapsAreConsistent) {
  Rng rng(3);
  const Graph g = gnm(25, 50, rng);
  std::vector<char> keep(25, 0);
  for (Vertex v = 0; v < 25; v += 2) keep[static_cast<std::size_t>(v)] = 1;
  const InducedSubgraph s = induce(g, keep);
  for (Vertex x = 0; x < s.graph.num_vertices(); ++x) {
    EXPECT_EQ(s.to_induced[static_cast<std::size_t>(
                  s.to_original[static_cast<std::size_t>(x)])],
              x);
  }
  // Edge preservation.
  for (const auto& [a, b] : s.graph.edges())
    EXPECT_TRUE(g.has_edge(s.to_original[static_cast<std::size_t>(a)],
                           s.to_original[static_cast<std::size_t>(b)]));
}

TEST(Permute, PreservesStructure) {
  Rng rng(5);
  const Graph g = gnm(20, 40, rng);
  std::vector<Vertex> perm(20);
  for (Vertex v = 0; v < 20; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  const Graph h = permute(g, perm);
  EXPECT_EQ(g.num_edges(), h.num_edges());
  for (const auto& [a, b] : g.edges())
    EXPECT_TRUE(h.has_edge(perm[static_cast<std::size_t>(a)],
                           perm[static_cast<std::size_t>(b)]));
}

TEST(Degeneracy, PathIsOneDegenerate) {
  EXPECT_EQ(degeneracy_order(path(10)).degeneracy, 1);
  EXPECT_EQ(degeneracy_order(cycle(10)).degeneracy, 2);
  EXPECT_EQ(degeneracy_order(complete(6)).degeneracy, 5);
}

TEST(Degeneracy, OrderIsValid) {
  Rng rng(11);
  const Graph g = gnm(50, 120, rng);
  const DegeneracyOrder d = degeneracy_order(g);
  // Every vertex has at most `degeneracy` neighbors later in the order.
  for (Vertex v = 0; v < 50; ++v) {
    Vertex later = 0;
    for (Vertex w : g.neighbors(v))
      if (d.position[static_cast<std::size_t>(w)] >
          d.position[static_cast<std::size_t>(v)])
        ++later;
    EXPECT_LE(later, d.degeneracy);
  }
}

TEST(Cliques, FindsPlantedClique) {
  Rng rng(13);
  Graph sparse = random_forest_union(40, 2, rng);
  // Plant a K_5 on vertices 0..4.
  std::vector<Edge> edges = sparse.edges();
  for (Vertex i = 0; i < 5; ++i)
    for (Vertex j = i + 1; j < 5; ++j)
      if (!sparse.has_edge(i, j)) edges.emplace_back(i, j);
  const Graph g = Graph::from_edges(40, edges);
  const auto k5 = find_clique(g, 5);
  ASSERT_TRUE(k5.has_value());
  EXPECT_TRUE(is_clique(g, *k5));
  EXPECT_EQ(k5->size(), 5u);
}

TEST(Cliques, NoCliqueInSparse) {
  Rng rng(17);
  const Graph g = random_forest_union(60, 2, rng);
  EXPECT_FALSE(find_clique(g, 5).has_value());  // arboricity 2 => no K_5
}

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth(cycle(7)), 7);
  EXPECT_EQ(girth(complete(4)), 3);
  EXPECT_EQ(girth(path(9)), -1);
  EXPECT_EQ(girth(petersen()), 5);
  EXPECT_EQ(girth(heawood()), 6);
  EXPECT_EQ(girth(mcgee()), 7);
  EXPECT_EQ(girth(grotzsch()), 4);
}

TEST(Girth, TriangleFree) {
  EXPECT_TRUE(triangle_free(cycle(5)));
  EXPECT_TRUE(triangle_free(grotzsch()));
  EXPECT_FALSE(triangle_free(complete(3)));
}

// Brute-force girth: the shortest cycle through edge {u, w} has length
// 1 + dist(u, w) in g minus that edge; minimize over edges, -1 if acyclic.
Vertex brute_force_girth(const Graph& g) {
  const std::vector<Edge> edges = g.edges();
  Vertex best = -1;
  for (const Edge& e : edges) {
    std::vector<Edge> rest;
    for (const Edge& f : edges)
      if (f != e) rest.push_back(f);
    const Vertex d = bfs_distances(Graph::from_edges(g.num_vertices(), rest),
                                   e.first)[static_cast<std::size_t>(e.second)];
    if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
  }
  return best;
}

void expect_girth_matches_brute_force(const Graph& g, const std::string& what) {
  const Vertex exact = brute_force_girth(g);
  EXPECT_EQ(girth(g, -1), exact) << what;
  for (Vertex limit = 3; limit <= 8; ++limit)
    EXPECT_EQ(girth(g, limit), exact >= 0 && exact <= limit ? exact : -1)
        << what << " limit=" << limit;
}

// The exact and truncated scans against brute force: random graphs from
// forests to dense ones, plus triangle-free families (grid 4, hex 6,
// Petersen 5, Heawood 6, McGee 7) where no triangle ends the scan early.
TEST(Girth, MatchesBruteForceAtEveryLimit) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 6 + static_cast<Vertex>(rng.below(30));
    const std::int64_t m = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(2 * n)));
    expect_girth_matches_brute_force(gnm(n, m, rng),
                                     "gnm trial " + std::to_string(trial));
  }
  expect_girth_matches_brute_force(random_tree(30, rng), "tree");
  expect_girth_matches_brute_force(grid(5, 6), "grid");
  expect_girth_matches_brute_force(hex_patch(3, 4), "hex");
  expect_girth_matches_brute_force(petersen(), "petersen");
  expect_girth_matches_brute_force(heawood(), "heawood");
  expect_girth_matches_brute_force(mcgee(), "mcgee");
  expect_girth_matches_brute_force(cycle(9), "cycle9");
}

TEST(Iso, CycleVsPath) {
  EXPECT_TRUE(is_isomorphic(cycle(6), cycle(6)));
  EXPECT_FALSE(is_isomorphic(cycle(6), path(6)));
}

TEST(Iso, PermutedGraphIsIsomorphic) {
  Rng rng(23);
  const Graph g = gnm(14, 30, rng);
  std::vector<Vertex> perm(14);
  for (Vertex v = 0; v < 14; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  EXPECT_TRUE(is_isomorphic(g, permute(g, perm)));
}

TEST(Iso, RootedDistinguishesCenter) {
  // A path rooted at its end vs rooted at its center.
  const Graph p = path(5);
  EXPECT_TRUE(is_rooted_isomorphic(p, 0, p, 4));
  EXPECT_FALSE(is_rooted_isomorphic(p, 0, p, 2));
}

TEST(Iso, DifferentDegreesRejected) {
  EXPECT_FALSE(is_isomorphic(star(3), path(4)));
}

}  // namespace
}  // namespace scol
