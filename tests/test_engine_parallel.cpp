// Pluggable-executor runtime: thread pool semantics, and bit-identical
// serial vs. thread-pool execution (states AND RoundLedger charges) across
// engine programs, the coloring call sites that accept executors, and
// seeds. The determinism contract is the whole point of the runtime: a
// parallel run must be indistinguishable from a serial run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "proptest.h"
#include "scol/api/json.h"
#include "scol/api/oneshot.h"
#include "scol/api/scenario.h"
#include "scol/coloring/ert.h"
#include "scol/coloring/kcoloring.h"
#include "scol/coloring/randomized.h"
#include "scol/coloring/ruling.h"
#include "scol/coloring/types.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/local/balls.h"
#include "scol/local/engine.h"
#include "scol/local/shard.h"
#include "scol/local/validate.h"
#include "scol/util/executor.h"

namespace scol {
namespace {

TEST(ThreadPoolExecutor, RunsEveryChunkExactlyOnce) {
  const ThreadPoolExecutor pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.run_chunks(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolExecutor, SequentialJobsReuseWorkers) {
  const ThreadPoolExecutor pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run_chunks(17, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPoolExecutor, PropagatesFirstExceptionByChunkIndex) {
  const ThreadPoolExecutor pool(4);
  try {
    pool.run_chunks(64, [&](std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
  // The pool must still be usable after an exception.
  std::atomic<int> sum{0};
  pool.run_chunks(8, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), 8);
}

// Threads this process runs, one /proc/self/task entry each.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

// A thread count arrives unchecked from flags, the wire and file
// scenarios; the pool starts at most one worker per core beyond the
// caller, while chunking still follows the requested count.
TEST(ThreadPoolExecutor, StartsAtMostOneWorkerPerSpareCore) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::size_t before = live_threads();
  const ThreadPoolExecutor pool(hw + 3, /*grain=*/1);
  EXPECT_EQ(live_threads() - before, static_cast<std::size_t>(hw - 1));
  EXPECT_EQ(pool.num_threads(), hw + 3);
  // 4 chunks per requested thread, 10 indices each.
  const std::size_t chunks = static_cast<std::size_t>(hw + 3) * 4;
  std::mutex mu;
  std::size_t ranges = 0;
  std::vector<int> hit(chunks * 10, 0);
  pool.parallel_ranges(hit.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hit[i];
    std::lock_guard<std::mutex> lock(mu);
    ++ranges;
  });
  EXPECT_EQ(ranges, chunks);
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(Executor, ParallelRangesCoverExactly) {
  ThreadPoolExecutor exec(4, /*grain=*/8);
  std::vector<int> hit(1000, 0);
  exec.parallel_ranges(hit.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hit[i];
  });
  for (int h : hit) EXPECT_EQ(h, 1);
  // Empty range is a no-op.
  exec.parallel_ranges(0, [&](std::size_t, std::size_t) { FAIL(); });
}

// Engine programs must produce identical states and identical ledger
// charges under serial and thread-pool executors.
TEST(EngineParallel, FloodingBitIdenticalAcrossExecutors) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2027);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnm(300, 700, rng);
    for (int r : {0, 1, 3}) {
      RoundLedger serial_ledger, pool_ledger;
      const auto serial = flood_balls_engine(g, r, &serial_ledger);
      const auto parallel = flood_balls_engine(g, r, &pool_ledger, &pool);
      EXPECT_EQ(serial, parallel);
      EXPECT_EQ(serial_ledger.total(), pool_ledger.total());
      EXPECT_EQ(serial_ledger.phase("flood-balls"),
                pool_ledger.phase("flood-balls"));
    }
  }
}

TEST(EngineParallel, RunSynchronousMatchesOnFamilies) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2029);
  const auto min_propagation = [](Vertex, const Vertex& self,
                                  NeighborStates<Vertex> nb) {
    Vertex best = self;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const Vertex d = nb.state(i);
      if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
    }
    return best;
  };
  for (const Graph& g : {gnm(500, 1200, rng), grid(22, 23),
                         random_stacked_triangulation(400, rng)}) {
    std::vector<Vertex> init(static_cast<std::size_t>(g.num_vertices()), -1);
    init[0] = 0;
    const auto serial = run_synchronous(g, init, 9, min_propagation);
    const auto parallel = run_synchronous(
        g, init, 9, min_propagation, EngineOptions{&pool, nullptr, "engine"});
    EXPECT_EQ(serial, parallel);
  }
}

TEST(EngineParallel, RunUntilStableMatchesRoundsAndStates) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2031);
  const Graph g = gnm(400, 900, rng);
  std::vector<int> init(static_cast<std::size_t>(g.num_vertices()), 0);
  init[7] = 1;
  const auto max_spread = [](Vertex, const int& self, NeighborStates<int> nb) {
    int best = self;
    for (std::size_t i = 0; i < nb.size(); ++i)
      best = std::max(best, nb.state(i));
    return best;
  };
  RoundLedger serial_ledger, pool_ledger;
  auto [s_states, s_used] = run_until_stable(
      g, init, 1000, max_spread,
      EngineOptions{nullptr, &serial_ledger, "spread"});
  auto [p_states, p_used] = run_until_stable(
      g, init, 1000, max_spread, EngineOptions{&pool, &pool_ledger, "spread"});
  EXPECT_EQ(s_states, p_states);
  EXPECT_EQ(s_used, p_used);
  EXPECT_EQ(serial_ledger.phase("spread"), pool_ledger.phase("spread"));
}

TEST(EngineParallel, RandomizedColoringBitIdenticalPerSeed) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng g_rng(2033);
  for (const Graph& g :
       {gnm(250, 600, g_rng), grid(14, 15), random_regular(200, 4, g_rng)}) {
    const ListAssignment lists = uniform_lists(
        g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
    for (std::uint64_t seed : {1ULL, 42ULL, 2026ULL}) {
      Rng serial_rng(seed), pool_rng(seed);
      RoundLedger serial_ledger, pool_ledger;
      const auto serial = randomized_list_coloring(g, lists, serial_rng,
                                                   &serial_ledger);
      const auto parallel = randomized_list_coloring(
          g, lists, pool_rng, &pool_ledger, &pool);
      EXPECT_EQ(serial.coloring, parallel.coloring);
      EXPECT_EQ(serial.rounds, parallel.rounds);
      EXPECT_EQ(serial_ledger.phase("randomized-coloring"),
                pool_ledger.phase("randomized-coloring"));
      expect_proper_list_coloring(g, *parallel.coloring, lists, &pool);
    }
  }
}

TEST(EngineParallel, DegreeColoringBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2039);
  for (Vertex d : {3, 5}) {
    const Graph g = random_regular(240, d, rng);
    RoundLedger serial_ledger, pool_ledger;
    const auto serial =
        distributed_degree_coloring(g, d, &serial_ledger);
    const auto parallel =
        distributed_degree_coloring(g, d, &pool_ledger, &pool);
    EXPECT_EQ(serial.coloring, parallel.coloring);
    EXPECT_EQ(serial.rounds, parallel.rounds);
    EXPECT_EQ(serial.palette, parallel.palette);
    EXPECT_EQ(serial_ledger.total(), pool_ledger.total());
    expect_proper_with_at_most(g, parallel.coloring, d + 1, &pool);
  }
}

TEST(EngineParallel, RulingForestBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2041);
  const Graph g = gnm(350, 800, rng);
  std::vector<char> in_u(static_cast<std::size_t>(g.num_vertices()), 0);
  for (Vertex v = 0; v < g.num_vertices(); v += 3)
    in_u[static_cast<std::size_t>(v)] = 1;
  for (Vertex alpha : {2, 5}) {
    RoundLedger serial_ledger, pool_ledger;
    const RulingForest serial =
        ruling_forest(g, in_u, alpha, &serial_ledger, nullptr, "ruling");
    const RulingForest parallel =
        ruling_forest(g, in_u, alpha, &pool_ledger, &pool, "ruling");
    EXPECT_EQ(serial.root, parallel.root);
    EXPECT_EQ(serial.parent, parallel.parent);
    EXPECT_EQ(serial.depth, parallel.depth);
    EXPECT_EQ(serial.roots, parallel.roots);
    EXPECT_EQ(serial.max_depth, parallel.max_depth);
    EXPECT_EQ(serial_ledger.phase("ruling"), pool_ledger.phase("ruling"));
  }
}

TEST(EngineParallel, DegreeChoosableColoringBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  Rng rng(2047);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = random_non_gallai(120, rng);
    AvailableLists avail(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      auto& list = avail[static_cast<std::size_t>(v)];
      for (Color c = 0; c < g.degree(v); ++c) list.push_back(c);
    }
    const Coloring serial = degree_choosable_coloring(g, avail);
    const Coloring parallel = degree_choosable_coloring(g, avail, &pool);
    EXPECT_EQ(serial, parallel);
  }
}

TEST(EngineParallel, ValidatorsReportIdenticalViolations) {
  ThreadPoolExecutor pool(4, /*grain=*/4);
  const Graph g = grid(10, 10);
  Coloring bad(static_cast<std::size_t>(g.num_vertices()), 0);  // all equal
  std::string serial_msg, pool_msg;
  try {
    expect_proper(g, bad);
  } catch (const InternalError& e) {
    serial_msg = e.what();
  }
  try {
    expect_proper(g, bad, &pool);
  } catch (const InternalError& e) {
    pool_msg = e.what();
  }
  EXPECT_FALSE(serial_msg.empty());
  EXPECT_EQ(serial_msg, pool_msg);
}

// --- Sharded executor: partition structure -------------------------------

TEST(ShardPlan, CutsCoverAndBoundariesMatchBruteForce) {
  Rng rng(2053);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gnm(200, 500, rng);
    for (int p : {1, 2, 3, 5, 8}) {
      ShardOptions options;
      options.shards = p;
      const ShardPlan plan = ShardPlan::build(g, options);
      ASSERT_EQ(plan.shards, p);
      ASSERT_EQ(static_cast<int>(plan.cuts.size()), p + 1);
      EXPECT_EQ(plan.cuts.front(), 0);
      EXPECT_EQ(plan.cuts.back(), g.num_vertices());
      for (int s = 0; s < p; ++s) EXPECT_LE(plan.cuts[s], plan.cuts[s + 1]);
      // owner() agrees with the ranges.
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const int s = plan.owner(v);
        EXPECT_GE(static_cast<std::int64_t>(v), plan.cuts[s]);
        EXPECT_LT(static_cast<std::int64_t>(v), plan.cuts[s + 1]);
      }
      // Cut edges and boundary totals vs. brute force.
      std::int64_t cut = 0, bvs = 0, pairs = 0;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const int s = plan.owner(v);
        std::vector<char> sends(static_cast<std::size_t>(p), 0);
        for (const Vertex u : g.neighbors(v)) {
          const int t = plan.owner(u);
          if (t == s) continue;
          sends[static_cast<std::size_t>(t)] = 1;
          if (u > v) ++cut;
        }
        const auto targets = std::count(sends.begin(), sends.end(), 1);
        if (targets > 0) ++bvs;
        pairs += targets;
      }
      EXPECT_EQ(plan.cut_edges, cut);
      EXPECT_EQ(plan.boundary_vertices, bvs);
      EXPECT_EQ(plan.boundary_pairs, pairs);
    }
  }
}

// --- Sharded executor: bit-identity and exchange accounting --------------

TEST(ShardedExecutor, EngineBitIdenticalAcrossShardCountsAndModes) {
  Rng rng(2057);
  const Graph g = gnm(300, 700, rng);
  RoundLedger serial_ledger;
  const auto serial = flood_balls_engine(g, 3, &serial_ledger);
  for (int p : {1, 2, 4, 8}) {
    for (const bool threaded : {false, true}) {
      ShardOptions options;
      options.shards = p;
      options.threaded = threaded;
      ShardedExecutor sharded(g, options);
      RoundLedger ledger;
      const auto got = flood_balls_engine(g, 3, &ledger, &sharded);
      EXPECT_EQ(serial, got) << "p=" << p << " threaded=" << threaded;
      EXPECT_EQ(serial_ledger.total(), ledger.total());
    }
  }
}

TEST(ShardedExecutor, RandomizedColoringBitIdenticalAndModesAgree) {
  Rng g_rng(2059);
  const Graph g = random_regular(200, 4, g_rng);
  const ListAssignment lists = uniform_lists(
      g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
  Rng serial_rng(7);
  const auto serial = randomized_list_coloring(g, lists, serial_rng);
  for (int p : {2, 5}) {
    ShardOptions options;
    options.shards = p;
    ShardedExecutor sequential(g, options);
    options.threaded = true;
    ShardedExecutor threaded(g, options);
    Rng seq_rng(7), thr_rng(7);
    const auto seq = randomized_list_coloring(g, lists, seq_rng, nullptr,
                                              &sequential);
    const auto thr = randomized_list_coloring(g, lists, thr_rng, nullptr,
                                              &threaded);
    EXPECT_EQ(serial.coloring, seq.coloring);
    EXPECT_EQ(serial.rounds, seq.rounds);
    EXPECT_EQ(seq.coloring, thr.coloring);
    // The exchange profile is part of the determinism contract too: the
    // sequential and the pool-backed drive of the same plan must count
    // the same rounds, messages, and bytes.
    const ExchangeStats a = sequential.stats();
    const ExchangeStats b = threaded.stats();
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_GT(a.rounds, 0);
  }
}

TEST(ShardedExecutor, ExchangeAccountingMatchesThePlan) {
  Rng rng(2063);
  const Graph g = gnm(250, 600, rng);
  ShardOptions options;
  options.shards = 4;
  ShardedExecutor sharded(g, options);
  std::vector<Vertex> init(static_cast<std::size_t>(g.num_vertices()), -1);
  init[0] = 0;
  const auto min_propagation = [](Vertex, const Vertex& self,
                                  NeighborStates<Vertex> nb) {
    Vertex best = self;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const Vertex d = nb.state(i);
      if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
    }
    return best;
  };
  run_synchronous(g, init, 5, min_propagation,
                  EngineOptions{&sharded, nullptr, "engine"});
  const ExchangeStats stats = sharded.stats();
  const ShardPlan& plan = sharded.plan();
  // Every full-width sweep is one BSP superstep; each superstep
  // re-announces every boundary vertex to each neighboring shard, at
  // (sizeof vertex + sizeof color) wire bytes per update.
  EXPECT_GE(stats.rounds, 5);
  EXPECT_EQ(stats.messages, stats.rounds * plan.boundary_pairs);
  EXPECT_EQ(stats.bytes, stats.messages * ShardedExecutor::kBytesPerUpdate);
}

// The report's per-round string: one boundary_pairs entry per superstep,
// the first 32 of them, then ",..." when more ran.
std::string expected_per_round(std::int64_t rounds, std::int64_t pairs) {
  std::string out;
  for (std::int64_t r = 0; r < std::min<std::int64_t>(rounds, 32); ++r) {
    if (r > 0) out += ',';
    out += std::to_string(pairs);
  }
  if (rounds > 32) out += ",...";
  return out;
}

// One executor serving many solves (a campaign instance, a daemon worker)
// reports every run's telemetry in full, long after its lifetime
// superstep count has passed 4096: empty full-width sweeps take it past
// that mark before the first solve.
TEST(ShardedExecutor, ReusedExecutorKeepsItsTelemetry) {
  OneShotSpec spec;
  spec.scenario = "complete:n=50";
  spec.algorithm = "dplus1-sparsified";
  spec.include_timing = false;
  Rng rng(1);
  const Graph g = build_scenario(spec.scenario, rng);
  ShardOptions options;
  options.shards = 2;
  const ShardedExecutor sharded(g, options);
  const std::int64_t pairs = sharded.plan().boundary_pairs;
  for (int sweep = 0; sweep <= 4096; ++sweep)
    sharded.parallel_ranges(static_cast<std::size_t>(g.num_vertices()),
                            [](std::size_t, std::size_t) {});
  std::int64_t last_start = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    spec.seed = seed;
    last_start = sharded.stats().rounds;
    const Json report = one_shot_report_on(g, spec, &sharded);
    const Json& metrics = *report.get("metrics");
    const std::int64_t rounds = metrics.get("exchange_rounds")->as_int();
    ASSERT_GT(rounds, 0) << "seed " << seed;
    EXPECT_EQ(metrics.get("exchange_messages")->as_int(), rounds * pairs);
    EXPECT_EQ(metrics.get("exchange_per_round")->as_str(),
              expected_per_round(rounds, pairs))
        << "seed " << seed << " starting at superstep " << last_start;
  }
  EXPECT_GT(last_start, 4096);
}

// The sharded telemetry is not in the golden corpus (it runs with
// metrics off), so its bytes are pinned here: one-shot runs with
// telemetry on, as `scol-cli --shards P --no-timing` prints them.
TEST(ShardedExecutor, TelemetryBytesArePinned) {
  struct Pin {
    const char* algorithm;
    const char* scenario;
    int shards;
    const char* metrics;
  };
  const Pin pins[] = {
      {"randomized", "complete:n=600", 2,
       R"({"iterations":14,"arena_allocs":0,"arena_bytes":0,"shards":2,)"
       R"("exchange_rounds":28,"exchange_messages":16800,)"
       R"("exchange_bytes":134400,"boundary_vertices":600,)"
       R"("cut_edges":90000,"exchange_per_round":"600,600,600,600,600,)"
       R"(600,600,600,600,600,600,600,600,600,600,600,600,600,600,600,)"
       R"(600,600,600,600,600,600,600,600"})"},
      {"randomized", "complete:n=600", 4,
       R"({"iterations":14,"arena_allocs":0,"arena_bytes":0,"shards":4,)"
       R"("exchange_rounds":28,"exchange_messages":50400,)"
       R"("exchange_bytes":403200,"boundary_vertices":600,)"
       R"("cut_edges":135000,"exchange_per_round":"1800,1800,1800,1800,)"
       R"(1800,1800,1800,1800,1800,1800,1800,1800,1800,1800,1800,1800,)"
       R"(1800,1800,1800,1800,1800,1800,1800,1800,1800,1800,1800,1800"})"},
      {"randomized", "complete:n=600", 7,
       R"({"iterations":14,"arena_allocs":0,"arena_bytes":0,"shards":7,)"
       R"("exchange_rounds":28,"exchange_messages":100800,)"
       R"("exchange_bytes":806400,"boundary_vertices":600,)"
       R"("cut_edges":154285,"exchange_per_round":"3600,3600,3600,3600,)"
       R"(3600,3600,3600,3600,3600,3600,3600,3600,3600,3600,3600,3600,)"
       R"(3600,3600,3600,3600,3600,3600,3600,3600,3600,3600,3600,3600"})"},
      {"sparse", "planar:n=3000", 2,
       R"({"peels":1,"radius":527,"arena_allocs":8,)"
       R"("arena_bytes":2235008,"shards":2,"exchange_rounds":18,)"
       R"("exchange_messages":51048,"exchange_bytes":408384,)"
       R"("boundary_vertices":2836,"cut_edges":4450,)"
       R"("exchange_per_round":"2836,2836,2836,2836,2836,2836,2836,2836,)"
       R"(2836,2836,2836,2836,2836,2836,2836,2836,2836,2836"})"},
      {"sparse", "planar:n=3000", 4,
       R"({"peels":1,"radius":527,"arena_allocs":8,)"
       R"("arena_bytes":2235008,"shards":4,"exchange_rounds":18,)"
       R"("exchange_messages":117306,"exchange_bytes":938448,)"
       R"("boundary_vertices":2976,"cut_edges":6710,)"
       R"("exchange_per_round":"6517,6517,6517,6517,6517,6517,6517,6517,)"
       R"(6517,6517,6517,6517,6517,6517,6517,6517,6517,6517"})"},
      {"sparse", "planar:n=3000", 7,
       R"({"peels":1,"radius":527,"arena_allocs":8,)"
       R"("arena_bytes":2235008,"shards":7,"exchange_rounds":18,)"
       R"("exchange_messages":164556,"exchange_bytes":1316448,)"
       R"("boundary_vertices":2998,"cut_edges":7630,)"
       R"("exchange_per_round":"9142,9142,9142,9142,9142,9142,9142,9142,)"
       R"(9142,9142,9142,9142,9142,9142,9142,9142,9142,9142"})"},
      {"dplus1-sparsified", "complete:n=50", 2,
       R"({"sparsify_target":23,"sparsify_attempts":3,)"
       R"("sparsify_fallback":0,"sparsify_sampled_colors":1150,)"
       R"("sparsify_full_colors":2500,"arena_allocs":0,"arena_bytes":0,)"
       R"("shards":2,"exchange_rounds":50,"exchange_messages":2500,)"
       R"("exchange_bytes":20000,"boundary_vertices":50,)"
       R"("cut_edges":625,"exchange_per_round":"50,50,50,50,50,50,50,50,)"
       R"(50,50,50,50,50,50,50,50,50,50,50,50,50,50,50,50,50,50,50,50,)"
       R"(50,50,50,50,..."})"},
      {"dplus1-sparsified", "complete:n=50", 4,
       R"({"sparsify_target":23,"sparsify_attempts":3,)"
       R"("sparsify_fallback":0,"sparsify_sampled_colors":1150,)"
       R"("sparsify_full_colors":2500,"arena_allocs":0,"arena_bytes":0,)"
       R"("shards":4,"exchange_rounds":50,"exchange_messages":7500,)"
       R"("exchange_bytes":60000,"boundary_vertices":50,)"
       R"("cut_edges":937,"exchange_per_round":"150,150,150,150,150,150,)"
       R"(150,150,150,150,150,150,150,150,150,150,150,150,150,150,150,)"
       R"(150,150,150,150,150,150,150,150,150,150,150,..."})"},
      {"dplus1-sparsified", "complete:n=50", 7,
       R"({"sparsify_target":23,"sparsify_attempts":3,)"
       R"("sparsify_fallback":0,"sparsify_sampled_colors":1150,)"
       R"("sparsify_full_colors":2500,"arena_allocs":0,"arena_bytes":0,)"
       R"("shards":7,"exchange_rounds":50,"exchange_messages":15000,)"
       R"("exchange_bytes":120000,"boundary_vertices":50,)"
       R"("cut_edges":1071,"exchange_per_round":"300,300,300,300,300,)"
       R"(300,300,300,300,300,300,300,300,300,300,300,300,300,300,300,)"
       R"(300,300,300,300,300,300,300,300,300,300,300,300,..."})"},
  };
  for (const Pin& pin : pins) {
    OneShotSpec spec;
    spec.scenario = pin.scenario;
    spec.algorithm = pin.algorithm;
    spec.shards = pin.shards;
    spec.include_timing = false;
    EXPECT_EQ(one_shot_report(spec).get("metrics")->dump(), pin.metrics)
        << pin.algorithm << " on " << pin.scenario << " at p="
        << pin.shards;
  }
}

// A loop narrower than the plan runs no superstep: it is the shard pool's
// own parallel_ranges, so its ranges are a ThreadPoolExecutor's with the
// same thread count. Below kDefaultGrain that is the single range (0, n)
// on the calling thread. No narrow loop adds exchange traffic, and
// parallel_min_index agrees with serial.
TEST(ShardedExecutor, NarrowLoopsBelowTheGrainRunInlineAsOneRange) {
  Rng rng(2081);
  const Graph g = gnm(1000, 2500, rng);
  for (const bool threaded : {false, true}) {
    ShardOptions options;
    options.shards = 4;
    options.threaded = threaded;
    ShardedExecutor sharded(g, options);
    const ThreadPoolExecutor pool(threaded ? 4 : 1);
    const auto ranges_of = [&](const Executor& exec, std::size_t n) {
      std::mutex mu;
      std::vector<std::pair<std::size_t, std::size_t>> ranges;
      bool off_thread = false;
      const auto caller = std::this_thread::get_id();
      exec.parallel_ranges(n, [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(begin, end);
        off_thread |= std::this_thread::get_id() != caller;
      });
      std::sort(ranges.begin(), ranges.end());
      return std::make_pair(ranges, off_thread);
    };
    for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                                kDefaultGrain - 1}) {
      const auto [ranges, off_thread] = ranges_of(sharded, n);
      EXPECT_EQ(ranges, (std::vector<std::pair<std::size_t, std::size_t>>{
                            {0, n}}))
          << "n=" << n << " threaded=" << threaded;
      EXPECT_FALSE(off_thread) << "n=" << n;
    }
    for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                                kDefaultGrain - 1, kDefaultGrain,
                                std::size_t{999}, std::size_t{5000}}) {
      const auto ranges = ranges_of(sharded, n).first;
      EXPECT_EQ(ranges, ranges_of(pool, n).first)
          << "n=" << n << " threaded=" << threaded;
      std::size_t next = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, next);
        next = end;
      }
      EXPECT_EQ(next, n);
    }
    for (const std::size_t n : {std::size_t{1}, std::size_t{60},
                                kDefaultGrain - 1, kDefaultGrain,
                                std::size_t{999}}) {
      for (const std::size_t stride : {std::size_t{1}, std::size_t{7},
                                       std::size_t{97}, std::size_t{5000}}) {
        const auto pred = [&](std::size_t i) { return i % stride == stride - 1; };
        EXPECT_EQ(parallel_min_index(sharded, n, pred),
                  parallel_min_index(serial_executor(), n, pred))
            << "n=" << n << " stride=" << stride;
      }
    }
    const ExchangeStats stats = sharded.stats();
    EXPECT_EQ(stats.rounds, 0);
    EXPECT_EQ(stats.messages, 0);
    EXPECT_EQ(stats.bytes, 0);
  }
}

// The tentpole property: sharded solve() reports are bit-for-bit the
// serial reports — across shard counts, across eligible algorithms, and
// on permuted-id twins of the instance (where serial-on-the-twin is the
// oracle for sharded-on-the-twin). Telemetry is off so the whole report,
// metrics bag included, must match byte-for-byte.
TEST(ShardedExecutor, SolveMatchesSerialAcrossShardCountsAndPermutations) {
  Rng rng(20260808);
  const ParamBag params;  // cells needing explicit params drop out
  const auto report_bytes = [](const ColoringRequest& req, std::uint64_t seed,
                               const Executor* exec) {
    RunContext ctx;
    ctx.seed = seed;
    ctx.executor = exec;
    ctx.validate = true;
    ColoringReport report = solve(req, ctx);
    report.wall_ms = 0.0;  // the only nondeterministic field
    return to_json(report, /*include_coloring=*/true).dump();
  };
  for (int trial = 0; trial < 4; ++trial) {
    const proptest::Sample sample = proptest::random_graph(rng);
    const Graph& g = sample.graph;
    const GraphProbe probe = probe_graph(g, {});
    const auto cells = proptest::eligible_cells(g, params, probe);
    const std::vector<Vertex> perm =
        proptest::random_permutation(g.num_vertices(), rng);
    const Graph twin = permute(g, perm);
    const std::uint64_t seed = 1 + rng.below(1000);
    for (const proptest::EligibleCell& cell : cells) {
      const ColoringRequest req = proptest::cell_request(cell, g);
      const std::string serial = report_bytes(req, seed, nullptr);
      for (int p : {2, 3, 7}) {
        ShardOptions options;
        options.shards = p;
        options.metrics = false;
        ShardedExecutor sharded(g, options);
        EXPECT_EQ(serial, report_bytes(req, seed, &sharded))
            << sample.description << " algo=" << cell.info->name
            << " p=" << p;
      }
      // Permuted twin: same property on relabeled ids (the cuts land
      // elsewhere, so this exercises genuinely different partitions).
      ColoringRequest twin_req = req;
      twin_req.graph = &twin;
      ListAssignment twin_lists;
      if (cell.info->caps.needs_lists) {
        twin_lists = proptest::permuted_lists(cell.lists, perm);
        twin_req.lists = &twin_lists;
      }
      const std::string twin_serial = report_bytes(twin_req, seed, nullptr);
      ShardOptions options;
      options.shards = 4;
      options.metrics = false;
      ShardedExecutor sharded(twin, options);
      EXPECT_EQ(twin_serial, report_bytes(twin_req, seed, &sharded))
          << sample.description << " (permuted) algo=" << cell.info->name;
    }
  }
}

TEST(RngStream, StreamsAreDeterministicAndDecorrelated) {
  Rng a = Rng::stream(99, 7);
  Rng b = Rng::stream(99, 7);
  Rng c = Rng::stream(99, 8);
  Rng d = Rng::stream(100, 7);
  const std::uint64_t a0 = a.next();
  EXPECT_EQ(a0, b.next());
  EXPECT_NE(a0, c.next());
  EXPECT_NE(a0, d.next());
}

}  // namespace
}  // namespace scol
