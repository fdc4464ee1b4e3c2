// Randomized (deg+1)-list-coloring (§6 remark / Question 6.2): validity,
// O(log n)-style round scaling, list preconditions, determinism per seed.
#include <gtest/gtest.h>

#include <cmath>

#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/coloring/randomized.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/local/shard.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

ListAssignment deg_plus_one_lists(const Graph& g, Color palette, Rng& rng) {
  ListAssignment out;
  std::vector<Color> all(static_cast<std::size_t>(palette));
  for (Color c = 0; c < palette; ++c) all[static_cast<std::size_t>(c)] = c;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    rng.shuffle(all);
    std::vector<Color> list(all.begin(), all.begin() + g.degree(v) + 1);
    std::sort(list.begin(), list.end());
    out.append(list);
  }
  return out;
}

TEST(Randomized, ValidOnFamilies) {
  Rng rng(701);
  for (int t = 0; t < 3; ++t) {
    for (const Graph& g :
         {random_regular(200, 4, rng), grid(12, 12), gnm(180, 300, rng)}) {
      Rng lists_rng(702 + static_cast<std::uint64_t>(t));
      const ListAssignment lists = deg_plus_one_lists(
          g, static_cast<Color>(g.max_degree() + 4), lists_rng);
      Rng run_rng(703 + static_cast<std::uint64_t>(t));
      const ColoringReport r = randomized_list_coloring(g, lists, run_rng);
      expect_proper_list_coloring(g, *r.coloring, lists);
    }
  }
}

TEST(Randomized, LogarithmicRoundScaling) {
  // O(log n) w.h.p.: rounds at n=4096 should stay within a small factor of
  // rounds at n=256 (log ratio = 1.5).
  Rng rng(709);
  std::int64_t small = 0, large = 0;
  {
    const Graph g = random_regular(256, 4, rng);
    Rng rr(1);
    small = randomized_list_coloring(g, deg_plus_one_lists(g, 9, rng), rr).rounds;
  }
  {
    const Graph g = random_regular(4096, 4, rng);
    Rng rr(1);
    large = randomized_list_coloring(g, deg_plus_one_lists(g, 9, rng), rr).rounds;
  }
  EXPECT_LE(large, 4 * small + 16);
}

TEST(Randomized, PathWithTwoListsWouldViolatePrecondition) {
  // Internal path vertices have degree 2, so 2-lists violate (deg+1).
  const Graph p = path(10);
  EXPECT_THROW(
      {
        Rng rng(5);
        randomized_list_coloring(p, uniform_lists(10, 2), rng);
      },
      PreconditionError);
}

TEST(Randomized, SeedDeterminism) {
  Rng g_rng(719);
  const Graph g = gnm(100, 180, g_rng);
  Rng l_rng(720);
  const ListAssignment lists =
      deg_plus_one_lists(g, static_cast<Color>(g.max_degree() + 3), l_rng);
  Rng r1(42), r2(42);
  const auto a = randomized_list_coloring(g, lists, r1);
  const auto b = randomized_list_coloring(g, lists, r2);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Randomized, CliqueWithExactLists) {
  // K_5 with (deg+1) = 5-lists: always colorable, randomized finds it.
  const Graph k5 = complete(5);
  Rng rng(727);
  const ColoringReport r =
      randomized_list_coloring(k5, uniform_lists(5, 5), rng);
  expect_proper_list_coloring(k5, *r.coloring, uniform_lists(5, 5));
}

TEST(Randomized, IsTheKernelOnItsOwnBaseSeed) {
  // randomized_list_coloring(g, L, rng) is the (deg+1) check plus the
  // propose/resolve kernel on base seed rng.next(): same coloring, same
  // iteration count.
  Rng g_rng(739);
  for (const Graph& g : {gnm(120, 260, g_rng), grid(9, 9), complete(6)}) {
    const ListAssignment lists = deg_plus_one_lists(
        g, static_cast<Color>(g.max_degree() + 2), g_rng);
    Rng report_rng(41), kernel_rng(41);
    const ColoringReport r = randomized_list_coloring(g, lists, report_rng);
    std::int64_t iterations = -1;
    const auto c = propose_resolve_coloring(
        g, lists, kernel_rng.next(), nullptr, 40'000, &iterations);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, *r.coloring);
    EXPECT_EQ(iterations, r.metrics.get_int("iterations", -2));
  }
}

TEST(Randomized, KernelStopsWhenEveryProposalMustClash) {
  // K2 with lists {0},{0}: both always propose 0 and clash. The kernel
  // gives up after the first iteration that colors nothing instead of
  // running to its cap.
  const Graph k2 = complete(2);
  const ListAssignment lists = uniform_lists(2, 1);
  std::int64_t iterations = -1;
  EXPECT_FALSE(propose_resolve_coloring(k2, lists, 7, nullptr, 1000,
                                        &iterations)
                   .has_value());
  EXPECT_EQ(iterations, 1);
}

TEST(Randomized, LedgerCharged) {
  const Graph g = grid(8, 8);
  Rng rng(733);
  RoundLedger ledger;
  const auto r = randomized_list_coloring(g, uniform_lists(64, 5), rng, &ledger);
  EXPECT_EQ(ledger.phase("randomized-coloring"), r.rounds);
}

TEST(Randomized, ListSolversAreExecutorIndependentAndPinned) {
  // The free-color kernels (propose/resolve and the greedy list pass) on
  // rmat:scale=12 with uniform and random (Delta+1)-lists: each coloring's
  // FNV-1a digest is pinned, and is the same serially, on a 4-thread pool
  // and on 4 threaded shards (the propose step keeps scratch per chunk).
  Rng scenario_rng(1);
  const Graph g = build_scenario("rmat:scale=12", scenario_rng);
  const Color k = static_cast<Color>(g.max_degree() + 1);
  Rng list_rng(2);
  const ListAssignment uniform = uniform_lists(g.num_vertices(), k);
  const ListAssignment random = random_lists(g.num_vertices(), k, 4 * k,
                                             list_rng);
  ThreadPoolExecutor pool(4);
  ShardOptions options;
  options.shards = 4;
  options.threaded = true;
  const ShardedExecutor sharded(g, options);
  const auto digest = [](const Coloring& c) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Color x : c) {
      for (int b = 0; b < 4; ++b) {
        h ^= (static_cast<std::uint32_t>(x) >> (8 * b)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  };
  const struct {
    const char* algorithm;
    const ListAssignment* lists;
    std::uint64_t digest;
  } pins[] = {
      {"randomized", &uniform, 0xa425234d6b6e700fULL},
      {"randomized", &random, 0x44ca190a241d421eULL},
      {"dplus1-sparsified", &uniform, 0xa1edcbf5e84baab0ULL},
      {"dplus1-sparsified", &random, 0x9ef03382ba7984e3ULL},
      {"degeneracy-list", &uniform, 0xc87e5885335c32ddULL},
      {"degeneracy-list", &random, 0x855171fcd6b0fba1ULL},
      {"deglist-sparsified", &uniform, 0x4e0382423ec1b0f8ULL},
      {"deglist-sparsified", &random, 0xa73bc56dc9f11a87ULL},
  };
  for (const auto& pin : pins) {
    const char* lists_name = pin.lists == &uniform ? "uniform" : "random";
    ColoringRequest req = make_request(pin.algorithm, g, *pin.lists);
    req.k = k;
    for (const Executor* exec :
         {static_cast<const Executor*>(nullptr),
          static_cast<const Executor*>(&pool),
          static_cast<const Executor*>(&sharded)}) {
      RunContext ctx;
      ctx.seed = 3;
      ctx.executor = exec;
      const ColoringReport r = solve(req, ctx);
      ASSERT_EQ(r.status, SolveStatus::kColored)
          << pin.algorithm << " " << lists_name << ": " << r.failure_reason;
      EXPECT_EQ(digest(*r.coloring), pin.digest)
          << pin.algorithm << " " << lists_name << " executor "
          << (exec == nullptr ? "serial" : exec == &pool ? "pool" : "shards")
          << std::hex << " got 0x" << digest(*r.coloring);
    }
  }
}

}  // namespace
}  // namespace scol
