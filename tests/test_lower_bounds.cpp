// Lower-bound gadgets (Theorems 1.5, 2.5, 2.6; Figures 2 and 3): exact
// chromatic numbers, ball isomorphisms, planarity of balls, genus
// certificates, and the chi(C_n^3) formula.
#include <gtest/gtest.h>

#include "scol/coloring/exact.h"
#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/special.h"
#include "scol/graph/girth.h"
#include "scol/lb/gadgets.h"
#include "scol/lb/indist.h"
#include "scol/planarity/planarity.h"

namespace scol {
namespace {

TEST(Gadget15, SmallInstancesExact) {
  for (Vertex n : {13, 17, 21}) {
    const Theorem15Report rep = verify_theorem15_gadget(n, /*exact=*/true);
    EXPECT_EQ(rep.chi_formula, 5) << n;
    EXPECT_EQ(rep.chi_exact, 5) << n;
    EXPECT_TRUE(rep.toroidal);
    EXPECT_TRUE(rep.triangulation);
    EXPECT_TRUE(rep.balls_planar);
    EXPECT_EQ(rep.implied_round_lower_bound,
              std::max<Vertex>(1, (n - 4) / 6) - 1);
  }
}

TEST(Gadget15, FormulaMatchesSolverAcrossResidues) {
  for (Vertex n = 12; n <= 22; ++n) {
    const Graph g = cycle_power(n, 3);
    EXPECT_EQ(chromatic_number(g), cycle_power_chromatic_number(n, 3)) << n;
  }
}

TEST(Gadget15, LargerInstancesStructural) {
  // Exact chi gets expensive; the structural premises and the formula
  // carry the claim for large n (documented substitution).
  const Theorem15Report rep = verify_theorem15_gadget(97, /*exact=*/false);
  EXPECT_EQ(rep.chi_formula, 5);
  EXPECT_TRUE(rep.toroidal);
  EXPECT_TRUE(rep.triangulation);
  EXPECT_TRUE(rep.balls_planar);
  EXPECT_GE(rep.implied_round_lower_bound, 14);
}

TEST(Gadget15, MultipleOfFourIsFourChromatic) {
  // The lower-bound family needs n not divisible by 4; at n % 4 == 0 the
  // cycle cube is 4-colorable — the boundary of the construction.
  EXPECT_EQ(chromatic_number(cycle_power(16, 3)), 4);
  EXPECT_EQ(cycle_power_chromatic_number(16, 3), 4);
}

TEST(GadgetKlein, OddOddIsFourChromatic) {
  for (auto [k, l] : {std::pair<Vertex, Vertex>{5, 5}, {5, 7}, {7, 7}}) {
    const KleinGridReport rep =
        verify_klein_gadget(k, l, /*iso_radius=*/2, /*exact=*/true);
    EXPECT_EQ(rep.chi_exact, 4) << k << "x" << l;
    EXPECT_FALSE(rep.bipartite);
    EXPECT_TRUE(rep.balls_match_planar_grid);
  }
}

TEST(GadgetKlein, LargerBallRadius) {
  const KleinGridReport rep =
      verify_klein_gadget(11, 11, /*iso_radius=*/4, /*exact=*/false);
  EXPECT_TRUE(rep.balls_match_planar_grid);
  EXPECT_EQ(rep.ball_radius_checked, 4);
  EXPECT_GE(rep.implied_round_lower_bound, 3);
}

TEST(GadgetKlein, PlanarGridItselfIsBipartite) {
  // The contrast that powers Theorem 2.6: the planar grid is 2-chromatic,
  // yet its balls are indistinguishable from the 4-chromatic Klein grid's.
  EXPECT_EQ(chromatic_number(grid(7, 7)), 2);
}

TEST(GadgetTriangleFree, KleinStripIsFourChromatic) {
  for (Vertex l : {7, 9}) {
    const TriangleFreeReport rep =
        verify_triangle_free_gadget(l, /*iso_radius=*/2, /*exact=*/true);
    EXPECT_EQ(rep.chi_exact, 4) << l;
    EXPECT_TRUE(rep.cylinder_planar);
    EXPECT_TRUE(rep.cylinder_triangle_free);
    EXPECT_TRUE(rep.balls_match_cylinder);
  }
}

TEST(GadgetTriangleFree, GrotzschContrast) {
  // Grötzsch's theorem: triangle-free planar graphs are 3-colorable
  // sequentially; the gadget shows no o(n)-round algorithm achieves 3.
  // (The Grötzsch graph itself is triangle-free, chi=4, but non-planar.)
  EXPECT_FALSE(is_planar(grotzsch()));
  EXPECT_TRUE(triangle_free(grotzsch()));
}

TEST(Indist, ExtractBallRoots) {
  const Graph g = grid(7, 7);
  BfsScratch scratch(g.num_vertices());
  const RootedBall b = extract_ball(g, lattice_id(3, 3, 7), 2, scratch);
  EXPECT_EQ(b.graph.num_vertices(), 13);  // diamond of radius 2
  EXPECT_EQ(b.graph.degree(b.root), 4);
}

TEST(Indist, GridBallsEmbedIntoBiggerGrid) {
  const Graph small = grid(9, 9);
  const Graph big = grid(15, 15);
  std::vector<Vertex> centers{lattice_id(4, 4, 9)};
  std::vector<Vertex> targets{lattice_id(7, 7, 15)};
  EXPECT_TRUE(balls_embed_into(small, centers, big, targets, 3));
  // A corner ball does NOT look like an interior ball.
  EXPECT_FALSE(balls_embed_into(small, {lattice_id(0, 0, 9)}, big, targets, 3));
}

TEST(Indist, TorusBallsArePlanarAtSmallRadius) {
  const Graph t = torus_grid(12, 12);
  std::vector<Vertex> centers{0, 50, 100};
  EXPECT_TRUE(balls_are_planar(t, centers, 3));
}

TEST(Indist, PathPowerBallsMatchCycleCube) {
  // The Theorem 1.5 ball shape: C_n(1,2,3) balls are path-power balls.
  const Graph c = cycle_power(40, 3);
  const Graph p = path_power(41, 3);
  std::vector<Vertex> centers{0, 13, 27};
  std::vector<Vertex> targets{20};
  EXPECT_TRUE(balls_embed_into(c, centers, p, targets, 4));
}

}  // namespace
}  // namespace scol
