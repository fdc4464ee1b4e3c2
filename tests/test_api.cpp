// The unified solver API: registry completeness, a round-trip over every
// registered algorithm (small planar + small random fixtures, reports
// independently validated), serial vs ThreadPoolExecutor report identity
// through RunContext, budgets/telemetry/aggregate-ledger plumbing, the
// scenario registry, ParamBag typing, JSON serialization, and
// ListAssignment edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "scol/scol.h"

namespace scol {
namespace {

struct ApiCase {
  std::string name;  // test label
  std::string algo;
  Graph graph;
  ListAssignment lists;  // empty lists = no-lists request
  Vertex k = -1;
  ParamBag params;
  SolveStatus expect = SolveStatus::kColored;
};

// One fixture per (algorithm, graph family) — kept in sync with the
// registry by RegistryCompleteness below, which fails when an algorithm
// has no fixture.
std::vector<ApiCase> api_cases() {
  std::vector<ApiCase> cases;
  Rng rng(20260728);
  const Graph planar = grid(8, 8);                  // planar, mad < 4
  const Graph sparse4 = random_regular(60, 4, rng); // d-regular, mad = 4

  const auto add = [&](std::string name, std::string algo, Graph g,
                       ListAssignment lists, Vertex k = -1,
                       ParamBag params = {},
                       SolveStatus expect = SolveStatus::kColored) {
    cases.push_back({std::move(name), std::move(algo), std::move(g),
                     std::move(lists), k, std::move(params), expect});
  };
  const auto unif = [](const Graph& g, Color k) {
    return uniform_lists(g.num_vertices(), k);
  };

  add("sparse_planar", "sparse", planar, unif(planar, 4), 4);
  add("sparse_regular", "sparse", sparse4, unif(sparse4, 4), 4);
  add("nice_planar", "nice", planar, unif(planar, 5));
  add("nice_regular", "nice", sparse4, unif(sparse4, 5));
  add("planar6", "planar6", planar, unif(planar, 6));
  add("planar4_tf", "planar4-trianglefree", planar, unif(planar, 4));
  {
    const Graph hex = hex_patch(8, 8);
    add("planar3_g6", "planar3-girth6", hex, unif(hex, 3));
  }
  {
    const Graph forest = random_forest_union(60, 2, rng);
    ParamBag p;
    p.set_int("arboricity", 2);
    add("arboricity", "arboricity", forest, unif(forest, 4), -1, p);
    add("barenboim_elkin", "barenboim-elkin", forest, {}, -1, p);
  }
  {
    const Graph torus = torus_grid(6, 6);  // Euler genus 2, H(2) = 7
    ParamBag p;
    p.set_int("genus", 2);
    add("genus", "genus", torus, unif(torus, 7), -1, p);
    add("genus_sharp", "genus-sharp", torus, unif(torus, 6), -1, p);
    add("genus_sharp_k7", "genus-sharp", complete(7), unif(complete(7), 6),
        -1, p, SolveStatus::kInfeasible);
  }
  add("delta_list", "delta-list", sparse4, unif(sparse4, 4));
  {
    const Graph k5_grid = disjoint_union(complete(5), grid(6, 6));
    add("delta_list_unsat", "delta-list", k5_grid, unif(k5_grid, 4), -1, {},
        SolveStatus::kInfeasible);
  }
  add("ert_planar", "ert", planar, unif(planar, 5));
  add("randomized_planar", "randomized", planar, unif(planar, 5));
  add("randomized_regular", "randomized", sparse4, unif(sparse4, 5));
  add("linial_planar", "linial", planar, {});
  add("linial_regular", "linial", sparse4, {});
  add("gps_planar", "gps", planar, {});
  add("greedy", "greedy", planar, {});
  add("degeneracy", "degeneracy", sparse4, {});
  add("dsatur", "dsatur", planar, {});
  add("degeneracy_list", "degeneracy-list", planar, unif(planar, 5));
  // Palette-sparsified family: sampled sub-palettes plus full-list
  // fallback keep the base solvers' guarantees, so kColored everywhere
  // the base fixture succeeds — and list-sparsified inherits exact-list's
  // infeasibility proof through the fallback.
  add("dplus1_sparsified", "dplus1-sparsified", planar, unif(planar, 5));
  add("dplus1_sparsified_regular", "dplus1-sparsified", sparse4,
      unif(sparse4, 5));
  add("deglist_sparsified", "deglist-sparsified", planar, unif(planar, 5));
  add("list_sparsified", "list-sparsified", grid(4, 4),
      unif(grid(4, 4), 2));
  add("list_sparsified_unsat", "list-sparsified", complete(5),
      unif(complete(5), 4), -1, {}, SolveStatus::kInfeasible);
  add("exact_petersen", "exact", petersen(), {}, 3);
  add("exact_petersen_2", "exact", petersen(), {}, 2,
      {}, SolveStatus::kInfeasible);
  add("exact_list", "exact-list", grid(4, 4), unif(grid(4, 4), 2));
  add("sdr_feasible", "sdr", complete(5), unif(complete(5), 5));
  add("sdr_unsat", "sdr", complete(5), unif(complete(5), 4), -1, {},
      SolveStatus::kInfeasible);
  return cases;
}

ColoringRequest to_request(const ApiCase& c) {
  ColoringRequest req;
  req.graph = &c.graph;
  req.algorithm = c.algo;
  req.k = c.k;
  req.params = c.params;
  if (!c.lists.empty()) req.lists = &c.lists;
  return req;
}

TEST(Registry, Completeness) {
  const auto names = AlgorithmRegistry::instance().names();
  EXPECT_GE(names.size(), 10u);
  // The paper pipeline, its corollaries, and every baseline must register.
  for (const char* expected :
       {"sparse", "nice", "planar6", "planar4-trianglefree",
        "planar3-girth6", "arboricity", "genus", "genus-sharp", "delta-list",
        "ert", "randomized", "linial", "gps", "barenboim-elkin", "greedy",
        "degeneracy", "dsatur", "degeneracy-list", "dplus1-sparsified",
        "deglist-sparsified", "list-sparsified", "exact", "exact-list",
        "sdr"}) {
    EXPECT_NE(AlgorithmRegistry::instance().find(expected), nullptr)
        << expected;
  }
  // Every registered algorithm has at least one round-trip fixture.
  std::set<std::string> covered;
  for (const auto& c : api_cases()) covered.insert(c.algo);
  for (const auto& n : names)
    EXPECT_TRUE(covered.count(n)) << "no api_cases fixture for '" << n << "'";
  // Capability contract: constructive provers name their witness kinds,
  // exhaustive search proves without one, heuristics prove nothing.
  const auto& reg = AlgorithmRegistry::instance();
  EXPECT_TRUE(reg.at("exact").caps.proves_infeasibility);
  EXPECT_TRUE(reg.at("exact").caps.certificate_kinds.empty());
  // The sparsified wrappers keep their fallback's proof power: only the
  // exact fallback can prove infeasibility (non-constructively), and all
  // three consume the seed for sampling.
  EXPECT_TRUE(reg.at("list-sparsified").caps.proves_infeasibility);
  EXPECT_TRUE(reg.at("list-sparsified").caps.certificate_kinds.empty());
  EXPECT_FALSE(reg.at("dplus1-sparsified").caps.proves_infeasibility);
  EXPECT_FALSE(reg.at("deglist-sparsified").caps.proves_infeasibility);
  EXPECT_TRUE(reg.at("dplus1-sparsified").caps.randomized);
  EXPECT_TRUE(reg.at("deglist-sparsified").caps.randomized);
  EXPECT_TRUE(reg.at("list-sparsified").caps.randomized);
  EXPECT_TRUE(reg.at("delta-list").caps.proves_infeasibility);
  EXPECT_EQ(reg.at("delta-list").caps.certificate_kinds,
            std::vector<std::string>{"no-sdr-clique"});
  EXPECT_FALSE(reg.at("greedy").caps.proves_infeasibility);
  // Registration sanity: duplicates refused.
  EXPECT_THROW(AlgorithmRegistry::instance().add(
                   {"sparse", "dup", {}, [](const ColoringRequest&,
                                            RunContext&) {
                      return ColoringReport{};
                    },
                    {}}),
               PreconditionError);
  EXPECT_THROW(AlgorithmRegistry::instance().at("no-such-algorithm"),
               PreconditionError);
}

TEST(Solve, RoundTripEveryAlgorithm) {
  for (const auto& c : api_cases()) {
    SCOPED_TRACE(c.name);
    RunContext ctx;
    ctx.seed = 99;
    ctx.validate = true;
    const ColoringReport r = solve(to_request(c), ctx);
    EXPECT_EQ(r.status, c.expect) << r.failure_reason;
    EXPECT_EQ(r.algorithm, c.algo);
    EXPECT_EQ(r.rounds, r.ledger.total());
    if (c.expect == SolveStatus::kColored) {
      ASSERT_TRUE(r.coloring.has_value());
      EXPECT_TRUE(is_proper(c.graph, *r.coloring));
      if (!c.lists.empty()) {
        EXPECT_TRUE(respects_lists(*r.coloring, c.lists));
      }
      EXPECT_EQ(r.colors_used, count_colors(*r.coloring));
      EXPECT_GT(r.wall_ms, 0.0);
    } else {
      EXPECT_FALSE(r.coloring.has_value());
    }
  }
}

TEST(Solve, SerialAndThreadPoolReportsBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  for (const auto& c : api_cases()) {
    SCOPED_TRACE(c.name);
    RunContext serial_ctx, pool_ctx;
    serial_ctx.seed = pool_ctx.seed = 7;
    pool_ctx.executor = &pool;
    const ColoringReport a = solve(to_request(c), serial_ctx);
    const ColoringReport b = solve(to_request(c), pool_ctx);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.coloring, b.coloring);
    EXPECT_EQ(a.certificate, b.certificate);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.colors_used, b.colors_used);
    EXPECT_EQ(a.ledger.breakdown(), b.ledger.breakdown());
  }
}

TEST(Solve, MisuseThrowsButAlgorithmFailureReports) {
  const Graph g = grid(4, 4);
  // Misuse: no graph / unknown algorithm / missing lists -> throws.
  RunContext ctx;
  ColoringRequest no_graph;
  no_graph.algorithm = "greedy";
  EXPECT_THROW(solve(no_graph, ctx), PreconditionError);
  EXPECT_THROW(solve(make_request("not-an-algorithm", g), ctx),
               PreconditionError);
  EXPECT_THROW(solve(make_request("sparse", g), ctx), PreconditionError);

  // Algorithm failure: a violated sparsity promise (GPS peel stall on K_9)
  // comes back as a kFailed report, not an exception.
  const Graph k9 = complete(9);
  const ColoringReport r = solve(make_request("gps", k9), ctx);
  EXPECT_EQ(r.status, SolveStatus::kFailed);
  EXPECT_FALSE(r.failure_reason.empty());
}

// An out-of-range `radius` is an ordinary parameter error (a failed report
// naming the param), never truncated into a default run or an assertion
// deep in the ruling forest. On 36 vertices ceil(log2 n) = 6, so the
// ruling-forest depth (2·radius + 2)·6 fits a Vertex up to radius
// 178956969.
TEST(Solve, OutOfRangeRadiusIsAParameterError) {
  const Graph g = grid(6, 6);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  RunContext ctx;
  const auto run = [&](const std::string& algo, const std::string& key,
                       ParamBag::Value value) {
    ColoringRequest req = make_request(algo, g, lists);
    req.params.set(key, std::move(value));
    return solve(req, ctx);
  };
  for (const std::int64_t radius :
       {std::int64_t{3'000'000'000}, std::int64_t{-3'000'000'000},
        std::int64_t{2'000'000'000}, std::int64_t{178'956'970}}) {
    for (const char* algo : {"planar6", "sparse", "nice"}) {
      const ColoringReport r = run(algo, "radius", radius);
      EXPECT_EQ(r.status, SolveStatus::kFailed) << algo << " " << radius;
      EXPECT_NE(r.failure_reason.find("param 'radius' = " +
                                      std::to_string(radius)),
                std::string::npos)
          << r.failure_reason;
    }
  }
  // A huge ball constant derives an equally huge radius: refused too.
  EXPECT_NE(run("planar6", "ball_constant", 1e300)
                .failure_reason.find("param 'radius'"),
            std::string::npos);
  const ColoringReport at_bound =
      run("planar6", "radius", std::int64_t{178'956'969});
  EXPECT_EQ(at_bound.status, SolveStatus::kColored) << at_bound.failure_reason;
  EXPECT_EQ(at_bound.metrics.get_int("radius", -1), 178'956'969);
}

// Each solver parameter decoder refuses a value a Vertex cannot hold,
// naming the param, instead of wrapping it: 2^32 + x would otherwise run
// as x.
ColoringReport run_with_param(const std::string& algo, const std::string& key,
                              std::int64_t value) {
  const Graph g = grid(6, 6);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  ColoringRequest req = make_request(algo, g, lists);
  req.params.set_int(key, value);
  RunContext ctx;
  return solve(req, ctx);
}

void expect_param_refused(const std::string& algo, const std::string& key,
                          std::int64_t value) {
  const ColoringReport r = run_with_param(algo, key, value);
  EXPECT_EQ(r.status, SolveStatus::kFailed) << algo << " " << key;
  EXPECT_NE(r.failure_reason.find("param '" + key + "' = " +
                                  std::to_string(value) + " is out of range"),
            std::string::npos)
      << algo << ": " << r.failure_reason;
}

TEST(Solve, SparseDThatWrapsIsRefused) {
  expect_param_refused("sparse", "d", std::int64_t{4'294'967'299});
  expect_param_refused("sparse", "d", std::int64_t{-4'294'967'295});
  EXPECT_EQ(run_with_param("sparse", "d", 3).status, SolveStatus::kColored);
}

TEST(Solve, GpsThresholdThatWrapsIsRefused) {
  expect_param_refused("gps", "threshold", std::int64_t{4'294'967'302});
  EXPECT_EQ(run_with_param("gps", "threshold", 6).status,
            SolveStatus::kColored);
}

TEST(Solve, ArboricityThatWrapsIsRefused) {
  for (const char* algo : {"arboricity", "barenboim-elkin"})
    expect_param_refused(algo, "arboricity", std::int64_t{4'294'967'298});
  EXPECT_EQ(run_with_param("arboricity", "arboricity", 2).status,
            SolveStatus::kColored);
}

TEST(Solve, GenusThatWrapsIsRefused) {
  expect_param_refused("genus", "genus", std::int64_t{4'294'967'296});
  EXPECT_EQ(run_with_param("genus", "genus", 1).status,
            SolveStatus::kColored);
}

TEST(Solve, SparsifyAttemptsPastTheCapAreRefused) {
  // The full-palette fallback already guarantees the answer, so the
  // attempts are capped at 64 instead of running for as long as asked.
  for (const std::int64_t attempts :
       {std::int64_t{65}, std::int64_t{20'000}, std::int64_t{4'294'967'297}})
    expect_param_refused("dplus1-sparsified", "sparsify_attempts", attempts);
  for (const std::int64_t attempts : {std::int64_t{-5}, std::int64_t{64}}) {
    const ColoringReport r =
        run_with_param("dplus1-sparsified", "sparsify_attempts", attempts);
    EXPECT_EQ(r.status, SolveStatus::kColored) << attempts;
    EXPECT_EQ(r.metrics.get_int("sparsify_attempts", -1), 1) << attempts;
  }
}

TEST(Solve, RoundBudgetPast32BitsSaturatesTheIterationCap) {
  // Half a round budget of 2^32 or more does not fit an int; the
  // propose/resolve cap saturates instead of wrapping to <= 1 iteration.
  const Graph g = grid(6, 6);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 5);
  for (const std::int64_t budget :
       {std::int64_t{4'294'967'296}, std::int64_t{4'294'967'298},
        std::int64_t{8'589'934'594}}) {
    RunContext ctx;
    ctx.round_budget = budget;
    const ColoringReport randomized =
        solve(make_request("randomized", g, lists), ctx);
    EXPECT_EQ(randomized.status, SolveStatus::kColored)
        << budget << ": " << randomized.failure_reason;
    EXPECT_GT(randomized.rounds, 0) << budget;
    const ColoringReport sparsified =
        solve(make_request("dplus1-sparsified", g, lists), ctx);
    EXPECT_EQ(sparsified.status, SolveStatus::kColored) << budget;
    EXPECT_EQ(sparsified.metrics.get_int("sparsify_attempts", -1), 1)
        << budget;
    EXPECT_EQ(sparsified.metrics.get_int("sparsify_fallback", -1), 0)
        << budget;
  }
}

TEST(Scenarios, FileThreadsThatWrapIsRefused) {
  // A reader thread count an int cannot hold is refused, not wrapped.
  Rng rng(1);
  try {
    build_scenario("file:path=missing.col,threads=4294967298", rng);
    FAIL() << "expected a PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "param 'threads' = 4294967298 is out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(Scenarios, IntegerKeyThatWrapsIsRefused) {
  // grid:rows=2^32+2 would build a 2-row grid; K_{2^32+3} would be K_3.
  for (const auto& [spec, key] :
       {std::pair<std::string, std::string>{"grid:rows=4294967298,cols=3",
                                            "rows"},
        {"complete:n=4294967299", "n"}}) {
    Rng rng(1);
    try {
      build_scenario(spec, rng);
      ADD_FAILURE() << spec << ": expected a PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("param '" + key + "' = "),
                std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

TEST(Solve, ContextBudgetsLedgerAndTelemetry) {
  const Graph g = grid(6, 6);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  ColoringRequest req = make_request("planar6", g, lists);

  RoundLedger aggregate;
  int starts = 0, ends = 0, phases = 0;
  RunContext ctx;
  ctx.ledger = &aggregate;
  ctx.round_budget = 1;  // any distributed run exceeds one round
  ctx.telemetry = [&](const TelemetryEvent& ev) {
    if (ev.kind == TelemetryEvent::Kind::kSolveStart) ++starts;
    if (ev.kind == TelemetryEvent::Kind::kSolveEnd) ++ends;
    if (ev.kind == TelemetryEvent::Kind::kPhase) ++phases;
  };

  const ColoringReport a = solve(req, ctx);
  EXPECT_TRUE(a.round_budget_exceeded);
  EXPECT_FALSE(a.deadline_exceeded);
  const ColoringReport b = solve(req, ctx);
  EXPECT_EQ(aggregate.total(), a.ledger.total() + b.ledger.total());
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(phases, static_cast<int>(a.ledger.breakdown().size() +
                                     b.ledger.breakdown().size()));
}

TEST(Solve, RandomizedSeedDeterminismThroughContext) {
  Rng g_rng(31);
  const Graph g = gnm(80, 140, g_rng);
  const ListAssignment lists =
      uniform_lists(g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
  const ColoringRequest req = make_request("randomized", g, lists);
  RunContext c1, c2, c3;
  c1.seed = c2.seed = 12345;
  c3.seed = 54321;
  const ColoringReport a = solve(req, c1);
  const ColoringReport b = solve(req, c2);
  const ColoringReport c = solve(req, c3);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_NE(a.coloring, c.coloring);  // different seed, different run
}

TEST(Scenarios, RegistryAndSpecs) {
  EXPECT_GE(ScenarioRegistry::instance().size(), 20u);
  const auto [name, params] = parse_scenario_spec("regular:n=64,d=4");
  EXPECT_EQ(name, "regular");
  EXPECT_EQ(params.get_int("n", -1), 64);
  EXPECT_EQ(params.get_int("d", -1), 4);

  Rng r1(5), r2(5);
  const Graph a = build_scenario("regular:n=64,d=4", r1);
  const Graph b = build_scenario("regular:n=64,d=4", r2);
  EXPECT_EQ(a.num_vertices(), 64);
  EXPECT_EQ(a.edges(), b.edges());  // deterministic per seed

  Rng r3(5);
  const Graph bare = build_scenario("petersen", r3);
  EXPECT_EQ(bare.num_vertices(), 10);
  EXPECT_THROW(build_scenario("no-such-family", r3), PreconditionError);
  EXPECT_THROW(build_scenario(":n=3", r3), PreconditionError);

  // Malformed key=val pairs are rejected with a position-carrying error,
  // never silently skipped.
  EXPECT_THROW(parse_scenario_spec("grid:rows=8,,cols=9"),
               PreconditionError);
  EXPECT_THROW(parse_scenario_spec("grid:rows="), PreconditionError);
  EXPECT_THROW(parse_scenario_spec("grid:=8"), PreconditionError);
  EXPECT_THROW(parse_scenario_spec("grid:rows=8,"), PreconditionError);
  try {
    parse_scenario_spec("grid:rows=8,,cols=9");
    FAIL() << "empty segment must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 12"), std::string::npos)
        << e.what();
  }

  // Unknown keys are rejected against the scenario's declared key set.
  EXPECT_THROW(validate_scenario_spec("grid:rowz=8"), PreconditionError);
  EXPECT_THROW(build_scenario("petersen:n=10", r3), PreconditionError);
  try {
    validate_scenario_spec("grid:rowz=8");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'rowz'"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find("rows"), std::string::npos) << what;  // known keys
  }
  // Well-formed specs with known keys still pass.
  EXPECT_NO_THROW(validate_scenario_spec("grid:rows=4,cols=5"));
  for (const auto& sname : ScenarioRegistry::instance().names())
    EXPECT_NO_THROW(validate_scenario_spec(sname));

  // Every scenario builds with defaults and yields a non-trivial graph —
  // except "file", the documented exception: it has no default path
  // (tests/test_io.cpp covers it against the bundled instances).
  for (const auto& sname : ScenarioRegistry::instance().names()) {
    if (sname == "file") continue;
    SCOPED_TRACE(sname);
    Rng rng(17);
    const Graph g = build_scenario(sname, rng);
    EXPECT_GT(g.num_vertices(), 0);
  }
}

TEST(Scenarios, UnknownNamesAndKeysGetDidYouMeanHints) {
  Rng rng(1);
  // A typo'd scenario name within edit distance 2 names the neighbor.
  try {
    build_scenario("gird:rows=4", rng);
    FAIL() << "unknown scenario must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scenario 'gird'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'grid'?"), std::string::npos) << what;
  }
  // A typo'd key gets the same treatment on top of the whitelist error.
  try {
    validate_scenario_spec("grid:rowz=8");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'rows'?"), std::string::npos) << what;
  }
  try {
    validate_scenario_spec("regular:b=4");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    // 'b' is within distance 2 of both axes; the closest (distance-1
    // tie) resolves to the first candidate in declaration order.
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'n'?"), std::string::npos) << what;
  }
  // Nothing nearby: the hint is omitted rather than misleading.
  try {
    validate_scenario_spec("grid:threshold=8");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"),
              std::string::npos)
        << e.what();
  }
}

TEST(Params, TypedBagAndParsing) {
  ParamBag bag;
  bag.set_int("n", 42).set_real("eps", 0.5).set_flag("fast", true)
      .set_str("mode", "auto");
  EXPECT_EQ(bag.get_int("n", -1), 42);
  EXPECT_DOUBLE_EQ(bag.get_real("eps", 0), 0.5);
  EXPECT_DOUBLE_EQ(bag.get_real("n", 0), 42.0);  // int widens to real
  EXPECT_TRUE(bag.get_flag("fast", false));
  EXPECT_EQ(bag.get_str("mode", ""), "auto");
  EXPECT_EQ(bag.get_int("absent", -7), -7);
  EXPECT_THROW(bag.get_int("mode", 0), PreconditionError);
  EXPECT_THROW(bag.get_flag("n", false), PreconditionError);
  // get_int_as refuses what the target type cannot hold.
  bag.set_int("big", std::int64_t{1} << 31);
  EXPECT_EQ(bag.get_int_as<std::int32_t>("n", -1), 42);
  EXPECT_EQ(bag.get_int_as<std::int32_t>("absent", -1), -1);
  EXPECT_EQ(bag.get_int_as<std::int64_t>("big", 0), std::int64_t{1} << 31);
  EXPECT_THROW(bag.get_int_as<std::int32_t>("big", 0), PreconditionError);
  bag.set_int("big", -(std::int64_t{1} << 31) - 1);
  EXPECT_THROW(bag.get_int_as<std::int32_t>("big", 0), PreconditionError);

  ParamBag parsed;
  parse_param(parsed, "k=12");
  parse_param(parsed, "c=65.8");
  parse_param(parsed, "deep");
  parse_param(parsed, "off=false");
  parse_param(parsed, "name=paper");
  EXPECT_EQ(parsed.get_int("k", -1), 12);
  EXPECT_NEAR(parsed.get_real("c", 0), 65.8, 1e-9);
  EXPECT_TRUE(parsed.get_flag("deep", false));
  EXPECT_FALSE(parsed.get_flag("off", true));
  EXPECT_EQ(parsed.get_str("name", ""), "paper");
  EXPECT_THROW(parse_param(parsed, "=3"), PreconditionError);
  // set() replaces in place, preserving order.
  parsed.set_int("k", 13);
  EXPECT_EQ(parsed.get_int("k", -1), 13);
  EXPECT_EQ(parsed.items().front().first, "k");
}

TEST(Json, ReportSerialization) {
  const Graph g = grid(5, 5);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  RunContext ctx;
  const ColoringReport r = solve(make_request("planar6", g, lists), ctx);
  const std::string compact = to_json(r).dump();
  EXPECT_NE(compact.find("\"algorithm\":\"planar6\""), std::string::npos);
  EXPECT_NE(compact.find("\"status\":\"colored\""), std::string::npos);
  EXPECT_NE(compact.find("\"rounds\":"), std::string::npos);
  EXPECT_EQ(compact.find("\"coloring\""), std::string::npos);
  const std::string full = to_json(r, /*include_coloring=*/true).dump(2);
  EXPECT_NE(full.find("\"coloring\""), std::string::npos);

  // Escaping: failure reasons may contain quotes/newlines.
  Json obj = Json::object();
  obj.set("msg", Json::str("a \"quoted\"\nline"));
  EXPECT_EQ(obj.dump(), "{\"msg\":\"a \\\"quoted\\\"\\nline\"}");
}

TEST(Lists, EdgeCases) {
  // random_lists with k == palette_size: every list is the full palette.
  Rng rng(3);
  const ListAssignment full = random_lists(10, 4, 4, rng);
  EXPECT_EQ(full.min_list_size(), 4u);
  for (Vertex v = 0; v < 10; ++v)
    EXPECT_TRUE(std::ranges::equal(full.of(v),
                                   std::vector<Color>{0, 1, 2, 3}));

  // Empty assignments and empty lists.
  ListAssignment none;
  EXPECT_EQ(none.min_list_size(), 0u);
  const ListAssignment empties =
      ListAssignment::from_lists(std::vector<std::vector<Color>>(3));
  EXPECT_EQ(empties.min_list_size(), 0u);

  // Lists are checked once, as they are built.
  EXPECT_THROW(ListAssignment::from_lists({{2, 1}}),
               PreconditionError);  // unsorted
  EXPECT_THROW(ListAssignment::from_lists({{1, 1}}),
               PreconditionError);  // duplicate
}

TEST(Lists, RandomListsArePinned) {
  // random_lists' output and the rng state it leaves are part of every
  // random-lists report: an FNV-1a digest of each list (length, then
  // colors) and the next rng.next() are pinned per (n, k, palette).
  const auto fold = [](std::uint64_t h, std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  const struct {
    Vertex n;
    Color k, palette;
    std::uint64_t digest, next;
  } pins[] = {
      {2048, 819, 3276, 0xf20ef97d1afa6336ULL, 0x1cabf208ff5db64dULL},
      {5000, 7, 28, 0x5375d3fea364a7daULL, 0x830cbf4d7b22137cULL},
      {10, 4, 4, 0x31b836986bcb75e5ULL, 0x89d410be0f0d7823ULL},
      {300, 1, 1, 0x3cd944c1b6b7c4a5ULL, 0x6a341a462da1690cULL},
      {257, 63, 64, 0x919f83fb46ddbc2dULL, 0x84e76a971c4003bfULL},
      {3000, 200, 2000, 0xb1ee523e126aa8cdULL, 0x0c663815d08ba1c0ULL},
  };
  for (const auto& p : pins) {
    Rng rng(static_cast<std::uint64_t>(p.n) * 31 + p.k);
    const ListAssignment lists = random_lists(p.n, p.k, p.palette, rng);
    ASSERT_EQ(lists.size(), p.n);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (Vertex v = 0; v < p.n; ++v) {
      const auto l = lists.of(v);
      ASSERT_EQ(l.size(), static_cast<std::size_t>(p.k));
      h = fold(h, l.size());
      for (const Color c : l) h = fold(h, static_cast<std::uint64_t>(c));
    }
    const std::uint64_t next = rng.next();
    EXPECT_EQ(h, p.digest) << p.n << " " << p.k << " " << p.palette;
    EXPECT_EQ(next, p.next) << p.n << " " << p.k << " " << p.palette;
  }
}

}  // namespace
}  // namespace scol
