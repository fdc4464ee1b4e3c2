// P — wall-clock microbenchmarks (google-benchmark): substrate primitives
// and end-to-end colorings through the unified scol::solve() entry point.
// These are engineering numbers (simulation throughput), not LOCAL rounds.
//
// Every google-benchmark flag works as usual; in addition,
//
//   $ ./bench_perf --baseline-out=BENCH_perf.json [--baseline-reps=N]
//
// records the per-series median real time (N repetitions, default 3) in
// the shared baseline schema (bench/baseline.h) under this machine's
// class key. CI runs the gbench JSON mode and feeds the artifact to
// tools/bench_compare.py — the bench-gate regression check; the baseline
// mode is how the checked-in BENCH_perf.json is (re)generated. See
// docs/BENCHMARKS.md.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "baseline.h"
#include "scol/scol.h"

namespace {

using namespace scol;

Graph make_regular(Vertex n, Vertex d) {
  Rng rng(12345);
  return random_regular(n, d, rng);
}

// --- Substrate primitives. ---

void BM_BfsBall(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  BfsScratch scratch(g.num_vertices());
  Vertex v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ball(g, v, 6, scratch));
    v = (v + 17) % g.num_vertices();
  }
}
BENCHMARK(BM_BfsBall)->Arg(1024)->Arg(8192);

void BM_BlockDecomposition(benchmark::State& state) {
  Rng rng(7);
  const Graph g = gnm(static_cast<Vertex>(state.range(0)),
                      2 * state.range(0), rng);
  for (auto _ : state) benchmark::DoNotOptimize(block_decomposition(g));
}
BENCHMARK(BM_BlockDecomposition)->Arg(1024)->Arg(8192);

void BM_GallaiRecognition(benchmark::State& state) {
  Rng rng(9);
  const Graph g = random_gallai_tree(static_cast<Vertex>(state.range(0)), 5, rng);
  for (auto _ : state) benchmark::DoNotOptimize(is_gallai_tree(g));
}
BENCHMARK(BM_GallaiRecognition)->Arg(200)->Arg(2000);

void BM_ExactMad(benchmark::State& state) {
  Rng rng(11);
  const Graph g = gnm(static_cast<Vertex>(state.range(0)),
                      2 * state.range(0), rng);
  for (auto _ : state) benchmark::DoNotOptimize(maximum_average_degree(g));
}
BENCHMARK(BM_ExactMad)->Arg(256)->Arg(1024);

void BM_Planarity(benchmark::State& state) {
  Rng rng(13);
  const Graph g = random_stacked_triangulation(
      static_cast<Vertex>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(is_planar(g));
}
BENCHMARK(BM_Planarity)->Arg(256)->Arg(1024);

void BM_HappySet(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const Vertex rho = paper_ball_radius(g.num_vertices());
  for (auto _ : state) benchmark::DoNotOptimize(compute_happy_set(g, 4, rho));
}
BENCHMARK(BM_HappySet)->Arg(1024)->Arg(8192);

void BM_HappySetParallel(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const Vertex rho = paper_ball_radius(g.num_vertices());
  ThreadPoolExecutor pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(compute_happy_set(g, 4, rho, &pool));
}
BENCHMARK(BM_HappySetParallel)->Arg(8192);

void BM_RulingForest(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  std::vector<char> u(static_cast<std::size_t>(g.num_vertices()), 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(ruling_forest(g, u, 8, nullptr));
}
BENCHMARK(BM_RulingForest)->Arg(1024)->Arg(8192);

void BM_DistributedDPlus1(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  for (auto _ : state)
    benchmark::DoNotOptimize(distributed_degree_coloring(g, 4));
}
BENCHMARK(BM_DistributedDPlus1)->Arg(1024)->Arg(8192);

// --- End-to-end through the unified API. ---

// Registry dispatch + request validation overhead: a trivial graph, so the
// measured time is solve() machinery, not algorithm work.
void BM_SolveDispatchOverhead(benchmark::State& state) {
  const Graph g = path(2);
  const ColoringRequest req = make_request("greedy", g);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveDispatchOverhead);

void BM_SolveSixColorPlanar(benchmark::State& state) {
  Rng rng(17);
  const Graph g = random_stacked_triangulation(
      static_cast<Vertex>(state.range(0)), rng);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  const ColoringRequest req = make_request("planar6", g, lists);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveSixColorPlanar)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SolveSparseRegular(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  ColoringRequest req = make_request("sparse", g, lists);
  req.k = 4;
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveSparseRegular)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_SolveSparseRegularParallel(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  ColoringRequest req = make_request("sparse", g, lists);
  req.k = 4;
  ThreadPoolExecutor pool;
  RunContext ctx;
  ctx.executor = &pool;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveSparseRegularParallel)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_SolveGpsPlanar(benchmark::State& state) {
  Rng rng(19);
  const Graph g = random_stacked_triangulation(
      static_cast<Vertex>(state.range(0)), rng);
  const ColoringRequest req = make_request("gps", g);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveGpsPlanar)->Arg(1024)->Arg(8192)->Unit(benchmark::kMillisecond);

// Palette sparsification vs its full-palette twin on the same dense-degree
// instance: a d=64 regular graph with (d+1)-lists, the regime where the
// sampled palette (c log n colors) is genuinely smaller than the full one.
// Pinning both series keeps the sparsified path's overhead honest relative
// to the solver it wraps.
void BM_SparsifiedSweep(benchmark::State& state, const char* algo) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 64);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 65);
  ColoringRequest req = make_request(algo, g, lists);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK_CAPTURE(BM_SparsifiedSweep, dplus1_sparsified, "dplus1-sparsified")
    ->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SparsifiedSweep, dplus1_full, "randomized")
    ->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ReportToJson(benchmark::State& state) {
  Rng rng(23);
  const Graph g = random_stacked_triangulation(512, rng);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  const ColoringReport report = solve(make_request("planar6", g, lists));
  for (auto _ : state)
    benchmark::DoNotOptimize(to_json(report, /*include_coloring=*/true).dump());
}
BENCHMARK(BM_ReportToJson);

// Console output as usual, plus per-series raw real times (ms) collected
// for the baseline writer: medians over repetitions become the pinned
// series values.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.run_name.str();
      auto [it, inserted] = samples_ms_.try_emplace(name);
      if (inserted) order_.push_back(name);
      it->second.push_back(run.GetAdjustedRealTime() /
                           benchmark::GetTimeUnitMultiplier(run.time_unit) *
                           1e3);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void fill(scol::bench::BaselineWriter& writer) const {
    for (const auto& name : order_)
      writer.add_median(name, samples_ms_.at(name), "ms",
                        /*higher_is_better=*/false);
  }

 private:
  std::map<std::string, std::vector<double>> samples_ms_;
  std::vector<std::string> order_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string baseline_out =
      scol::bench::take_flag(argc, argv, "--baseline-out");
  const std::string baseline_reps =
      scol::bench::take_flag(argc, argv, "--baseline-reps");

  std::vector<char*> args(argv, argv + argc);
  std::string reps_flag;
  if (!baseline_out.empty()) {
    // Baseline values are medians, so force repetitions unless the caller
    // already chose a count via the native flag.
    bool has_reps = false;
    for (char* a : args)
      if (std::string(a).rfind("--benchmark_repetitions", 0) == 0)
        has_reps = true;
    if (!has_reps) {
      reps_flag = "--benchmark_repetitions=" +
                  (baseline_reps.empty() ? std::string("3") : baseline_reps);
      args.push_back(reps_flag.data());
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;

  if (baseline_out.empty()) {
    // No baseline requested: defer to the library's own reporter selection
    // so --benchmark_format=json keeps producing the CI artifact.
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  scol::bench::BaselineWriter writer("bench_perf");
  reporter.fill(writer);
  if (writer.size() == 0 || !writer.write(baseline_out)) {
    std::fprintf(stderr, "bench_perf: cannot write baseline '%s'\n",
                 baseline_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "bench_perf: wrote %zu series for %s to %s\n",
               writer.size(), scol::bench::machine_class().c_str(),
               baseline_out.c_str());
  return 0;
}
