// The three file-backed workloads: ingest-rmat18, lists-rmat15 and
// planar-paper. Each generates its input file from the seed (set-up), then
// repeats one operation — read the file, probe, build lists, solve, validate,
// emit — until the run's time is spent.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <sstream>

#include "common.h"
#include "scol/api/json.h"
#include "scol/api/registry.h"
#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/coloring/types.h"
#include "scol/io/io.h"
#include "scol/io/probe.h"
#include "scol/local/shard.h"
#include "scol/util/executor.h"

namespace e2e {
namespace {

using namespace scol;

constexpr int kSetupRepeats = 3;
constexpr int kExecutorWidth = 4;
/// Sampled-probe budget on ingest-rmat18: far below its n + m, so the probe
/// never walks the full edge set.
constexpr std::int64_t kSampledProbeBudget = 1'000'000;
/// Barenboim–Elkin on a stacked triangulation: m = 3n - 6, arboricity 3.
constexpr int kPlanarArboricity = 3;
constexpr double kBarenboimElkinEps = 1.0;

struct OpState;
using OpBody = void (*)(OpState&, const Graph&);

struct BatchWorkload {
  const char* name;
  const char* gen;   ///< scenario spec of the generated input
  int read_threads;  ///< ReadOptions::threads (1 = streaming reader)
  OpBody body;       ///< what the operation does after reading the file
};

// ---------------------------------------------------------------- set-up

struct SetupResult {
  std::int64_t start_ns = 0, gen_start_ns = 0, gen_end_ns = 0,
               write_end_ns = 0, end_ns = 0;
  std::string error;
};

/// Generates the scenario and writes it as METIS in a forked child, so the
/// generator's memory never counts toward the measured process's peak RSS.
/// The child reports its step times over a pipe (steady_clock is
/// system-wide).
SetupResult setup_input(const std::string& spec, std::uint64_t seed,
                        const std::string& path) {
  SetupResult r;
  int fds[2];
  if (pipe(fds) != 0) {
    r.error = "pipe failed";
    return r;
  }
  r.start_ns = now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    r.error = "fork failed";
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string msg;
    try {
      const std::int64_t t0 = now_ns();
      Rng rng(seed);
      const Graph g = build_scenario(spec, rng);
      const std::int64_t t1 = now_ns();
      write_graph_file(path, g, GraphFormat::kMetis);
      const std::int64_t t2 = now_ns();
      msg = "ok " + std::to_string(t0) + " " + std::to_string(t1) + " " +
            std::to_string(t2) + "\n";
    } catch (const std::exception& e) {
      msg = std::string("error ") + e.what() + "\n";
    }
    std::size_t done = 0;
    while (done < msg.size()) {
      const ssize_t w = write(fds[1], msg.data() + done, msg.size() - done);
      if (w <= 0) break;
      done += static_cast<std::size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string msg;
  char buf[512];
  for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) != 0;) {
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    msg.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  r.end_ns = now_ns();
  std::istringstream in(msg);
  std::string tag;
  in >> tag;
  if (tag != "ok") {
    r.error = "set-up of " + spec + " failed: " + msg;
    return r;
  }
  in >> r.gen_start_ns >> r.gen_end_ns >> r.write_end_ns;
  if (!in) r.error = "set-up of " + spec + " sent a malformed record";
  return r;
}

// ------------------------------------------------------------ operation

/// Median over operations of the time spent in spans named `name` (an
/// operation may call a layer more than once); 0 when there are none.
double span_ms_per_op(const Tracer& tracer, const std::string& name) {
  std::map<int, double> per_op;
  for (const SpanRecord& s : tracer.spans())
    if (s.name == name) per_op[s.op] += s.ms();
  std::vector<double> values;
  for (const auto& [op, ms] : per_op) values.push_back(ms);
  return median(values);
}

/// Per-operation state: the counts that must repeat exactly, the layer
/// figures that are not span times, and the operation's failures.
struct OpState {
  Tracer& tracer;
  std::uint64_t seed;
  Json* instance = nullptr;  ///< set on the first operation only
  std::map<std::string, std::int64_t> counts = {};
  std::vector<std::string> errors = {};
  double lists_rss_mb = 0.0;
  std::int64_t sparsify_attempts = 0;
  std::int64_t sparsify_fallbacks = 0;

  void add(const std::string& key, std::int64_t v) { counts[key] += v; }
};

/// One solve through scol::solve, then its validation and emission.
/// `label` is "<algo>" or "<algo>.<executor>". `color_bound` is the bound
/// this run must meet: the paper's for planar6 (6), gps (7) and
/// barenboim-elkin (floor((2+eps)a)+1), the algorithm's guarantee for the
/// rest; -1 leaves only the registry's bound.
Coloring solve_validate_emit(OpState& st, const std::string& label,
                             const Graph& g, const ListAssignment* lists,
                             ColoringRequest req, std::int64_t color_bound,
                             const Executor* executor = nullptr) {
  const AlgorithmInfo& info = AlgorithmRegistry::instance().at(req.algorithm);
  req.graph = &g;
  req.lists = lists;
  RunContext ctx;
  ctx.seed = st.seed;
  ctx.executor = executor;
  ColoringReport rep;
  {
    Span span(st.tracer, "solve." + label);
    rep = solve(req, ctx);
  }
  {
    Span span(st.tracer, "validate");
    const std::int64_t registry_bound =
        info.color_bound ? info.color_bound(req) : -1;
    if (!rep.ok() || !rep.coloring) {
      st.errors.push_back(label + ": status " + to_string(rep.status) + " " +
                          rep.failure_reason);
    } else if (!is_proper(g, *rep.coloring)) {
      st.errors.push_back(label + ": coloring is not proper");
    } else if (lists != nullptr && !respects_lists(*rep.coloring, *lists)) {
      st.errors.push_back(label + ": coloring leaves its lists");
    } else if (color_bound >= 0 && rep.colors_used > color_bound) {
      st.errors.push_back(label + ": " + std::to_string(rep.colors_used) +
                          " colors, bound " + std::to_string(color_bound));
    } else if (registry_bound >= 0 && rep.colors_used > registry_bound) {
      st.errors.push_back(label + ": " + std::to_string(rep.colors_used) +
                          " colors, registered bound " +
                          std::to_string(registry_bound));
    }
  }
  rep.wall_ms = 0.0;  // the one nondeterministic report field
  std::size_t bytes = 0;
  {
    Span span(st.tracer, "emit");
    bytes = to_json(rep).dump().size();
  }
  st.add("colors_used", rep.colors_used);
  st.add("local_rounds", rep.rounds);
  st.add("emit.bytes", static_cast<std::int64_t>(bytes));
  st.add("solve." + label + ".colors", rep.colors_used);
  for (const auto& [phase, rounds] : rep.ledger.breakdown())
    st.add("solve." + label + ".rounds." + phase, rounds);
  st.add("executor.exchange_messages",
         rep.metrics.get_int("exchange_messages", 0));
  st.add("executor.exchange_bytes", rep.metrics.get_int("exchange_bytes", 0));
  st.sparsify_attempts += rep.metrics.get_int("sparsify_attempts", 0);
  st.sparsify_fallbacks += rep.metrics.get_int("sparsify_fallback", 0);
  return rep.coloring ? std::move(*rep.coloring) : Coloring{};
}

GraphProbe probe(OpState& st, const Graph& g, bool sampled) {
  ProbeOptions po;
  if (sampled) po.budget = kSampledProbeBudget;
  Span span(st.tracer, sampled ? "probe.sampled" : "probe.exact");
  return probe_graph(g, po);
}

ListAssignment uniform(OpState& st, const Graph& g, Color k) {
  const double rss_before = peak_rss_mb(/*children=*/false);
  ListAssignment lists;
  {
    Span span(st.tracer, "lists");
    lists = uniform_lists(g.num_vertices(), k);
  }
  st.lists_rss_mb = peak_rss_mb(/*children=*/false) - rss_before;
  st.add("lists.entries", static_cast<std::int64_t>(lists.flat().size()));
  if (st.instance != nullptr)
    st.instance->set("list_entries", Json::integer(st.counts["lists.entries"]));
  return lists;
}

// linial, on ingest-rmat18 and lists-rmat15, is the deterministic LOCAL
// (Δ+1) baseline. It also keeps local_rounds away from 0 (degeneracy is
// sequential) and from the handful of rounds randomized takes, whose
// seed-to-seed swing (8 to 10) would be a quarter of the figure.

void ingest_op(OpState& st, const Graph& g) {
  probe(st, g, /*sampled=*/true);
  // degeneracy is the cheapest quality solve, so the read stays most of
  // the operation.
  solve_validate_emit(st, "degeneracy", g, nullptr,
                      make_request("degeneracy", g), -1);
  solve_validate_emit(st, "linial", g, nullptr, make_request("linial", g),
                      g.max_degree() + 1);
}

void lists_op(OpState& st, const Graph& g) {
  const GraphProbe p = probe(st, g, /*sampled=*/false);
  if (st.instance != nullptr)
    st.instance->set("degeneracy", Json::integer(p.degeneracy));
  const Color k = static_cast<Color>(g.max_degree() + 1);
  const ListAssignment lists = uniform(st, g, k);
  solve_validate_emit(st, "degeneracy", g, nullptr,
                      make_request("degeneracy", g), p.degeneracy + 1);
  solve_validate_emit(st, "linial", g, nullptr, make_request("linial", g), k);
  // The sparsified twin runs on the same lists as its full-palette solver.
  ColoringRequest req = make_request("randomized", g, lists);
  req.k = k;
  solve_validate_emit(st, "randomized", g, &lists, req, k);
  req.algorithm = "dplus1-sparsified";
  solve_validate_emit(st, "dplus1-sparsified", g, &lists, req, k);
}

void planar_op(OpState& st, const Graph& g) {
  const ListAssignment lists = uniform(st, g, 6);
  ColoringRequest six = make_request("planar6", g, lists);
  six.k = 6;
  const Coloring serial = solve_validate_emit(st, "planar6", g, &lists, six, 6);
  std::unique_ptr<ThreadPoolExecutor> pool;
  {
    Span span(st.tracer, "executor.pool_setup");
    pool = std::make_unique<ThreadPoolExecutor>(kExecutorWidth);
  }
  const Coloring threaded = solve_validate_emit(
      st, "planar6.threads4", g, &lists, six, 6, pool.get());
  pool.reset();
  std::unique_ptr<ShardedExecutor> sharded;
  {
    Span span(st.tracer, "executor.shard_setup");
    ShardOptions so;
    so.shards = kExecutorWidth;
    so.threaded = true;
    so.metrics = true;
    sharded = std::make_unique<ShardedExecutor>(g, so);
  }
  const Coloring sharded_coloring = solve_validate_emit(
      st, "planar6.shards4", g, &lists, six, 6, sharded.get());
  sharded.reset();
  if (threaded != serial || sharded_coloring != serial)
    st.errors.push_back("planar6: executors disagree with the serial coloring");

  ColoringRequest gps = make_request("gps", g);
  gps.k = 7;
  solve_validate_emit(st, "gps", g, nullptr, gps, 7);
  ColoringRequest be = make_request("barenboim-elkin", g);
  be.params.set_int("arboricity", kPlanarArboricity);
  be.params.set_real("eps", kBarenboimElkinEps);
  solve_validate_emit(
      st, "barenboim-elkin", g, nullptr, be,
      static_cast<std::int64_t>(
          std::floor((2.0 + kBarenboimElkinEps) * kPlanarArboricity)) + 1);
}

// Why these three: see BENCHMARK.json and bench_e2e/INSTANCES.json.
const BatchWorkload kWorkloads[] = {
    {"ingest-rmat18", "rmat:scale=18", 4, ingest_op},
    {"lists-rmat15", "rmat:scale=15", 4, lists_op},
    {"planar-paper", "planar:n=100000", 1, planar_op},
};

/// Reads the input file, then runs the workload's body on it.
void run_op(const BatchWorkload& w, const std::string& path, OpState& st) {
  ReadResult read;
  {
    Span span(st.tracer, "io.read");
    ReadOptions ro;
    ro.threads = w.read_threads;
    read = read_graph_file(path, GraphFormat::kMetis, ro);
  }
  const Graph& g = read.graph;
  st.add("io.read.bytes",
         static_cast<std::int64_t>(std::filesystem::file_size(path)));
  if (st.instance != nullptr) {
    st.instance->set("n", Json::integer(g.num_vertices()));
    st.instance->set("m", Json::integer(g.num_edges()));
    st.instance->set("max_degree", Json::integer(g.max_degree()));
    st.instance->set("file_bytes", Json::integer(st.counts["io.read.bytes"]));
  }
  w.body(st, g);
}

}  // namespace

void run_batch(const Options& options, Tracer& tracer, Outcome& out) {
  const BatchWorkload* w = nullptr;
  for (const auto& cand : kWorkloads)
    if (options.workload == cand.name) w = &cand;
  if (w == nullptr)
    throw std::runtime_error("unknown workload " + options.workload);

  const std::string path =
      options.state_dir + "/inputs/" + w->name + ".graph";
  std::filesystem::create_directories(options.state_dir + "/inputs");

  // Set-up, repeated so that setup_s is a median: generate and write.
  std::vector<double> setup_s, gen_ms, write_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    tracer.set_op(-1 - i);
    const int span = tracer.begin("setup");
    const SetupResult s = setup_input(w->gen, options.seed, path);
    tracer.add(span, "gen", s.gen_start_ns, s.gen_end_ns);
    tracer.add(span, "io.write", s.gen_end_ns, s.write_end_ns);
    tracer.end(span);
    if (!s.error.empty()) throw std::runtime_error(s.error);
    setup_s.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    gen_ms.push_back(ms_between(s.gen_start_ns, s.gen_end_ns));
    write_ms.push_back(ms_between(s.gen_end_ns, s.write_end_ns));
  }

  std::map<std::string, std::int64_t> first_counts;
  double lists_rss_mb = 0.0;
  std::int64_t sparsify_attempts = 0, sparsify_fallbacks = 0;
  const std::int64_t start = now_ns();
  std::int64_t end = start;
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  for (int op = 0; op == 0 || end - start < budget_ns; ++op) {
    tracer.set_op(op);
    OpState st{tracer, options.seed, op == 0 ? &out.instance : nullptr};
    const std::int64_t t0 = now_ns();
    try {
      Span span(tracer, "op");
      run_op(*w, path, st);
    } catch (const std::exception& e) {
      st.errors.push_back(std::string("exception: ") + e.what());
    }
    end = now_ns();
    out.op_seconds.push_back(static_cast<double>(end - t0) / 1e9);
    ++out.attempted;
    if (op == 0) {
      first_counts = st.counts;
    } else if (st.counts != first_counts && st.errors.empty()) {
      st.errors.push_back("deterministic counts changed between operations");
    }
    if (!st.errors.empty())
      out.fail(std::string(w->name) + " op " + std::to_string(op) + ": " +
               st.errors.front());
    lists_rss_mb = std::max(lists_rss_mb, st.lists_rss_mb);
    sparsify_attempts += st.sparsify_attempts;
    sparsify_fallbacks += st.sparsify_fallbacks;
  }
  out.counts = first_counts;
  const double measured_s = static_cast<double>(end - start) / 1e9;

  std::vector<double> op_ms;
  for (const double s : out.op_seconds) op_ms.push_back(s * 1e3);
  // A batch operation is one request answered without a cache: the serve_*
  // figures restate the operation's latency and rate (every request misses).
  out.end_to_end = {
      {"setup_s", median(setup_s)},
      {"op_s", median(out.op_seconds)},
      {"peak_rss_mb", peak_rss_mb(false)},
      {"colors_used", static_cast<double>(first_counts["colors_used"])},
      {"local_rounds", static_cast<double>(first_counts["local_rounds"])},
      {"serve_rps", static_cast<double>(out.op_seconds.size()) / measured_s},
      {"serve_p50_ms", percentile(op_ms, 0.5)},
      {"serve_p99_ms", percentile(op_ms, 0.99)},
      {"serve_miss_p50_ms", percentile(op_ms, 0.5)},
  };

  if (!tracer.enabled()) return;
  auto& L = out.per_layer;
  L["gen.ms"] = median(gen_ms);
  L["io.write.ms"] = median(write_ms);
  std::set<std::string> timed;
  for (const SpanRecord& s : tracer.spans())
    if (s.op >= 0 && s.name != "op") timed.insert(s.name);
  for (const std::string& name : timed)
    L[name + ".ms"] = span_ms_per_op(tracer, name);
  // Counts that are per-layer metrics too: bytes read and emitted, list
  // entries, exchange traffic, colors and rounds per solve and phase.
  for (const auto& [key, v] : first_counts) L[key] = static_cast<double>(v);
  if (L["io.read.ms"] > 0)
    L["io.read.mb_s"] = L["io.read.bytes"] / 1e6 / (L["io.read.ms"] / 1e3);
  L["lists.rss_mb"] = lists_rss_mb;
  if (sparsify_attempts > 0)
    L["solve.dplus1-sparsified.fallback_ratio"] =
        static_cast<double>(sparsify_fallbacks) /
        static_cast<double>(sparsify_attempts);
  const double serial = L["solve.planar6.ms"];
  if (L["solve.planar6.threads4.ms"] > 0)
    L["executor.speedup.threads4"] = serial / L["solve.planar6.threads4.ms"];
  if (L["solve.planar6.shards4.ms"] > 0)
    L["executor.speedup.shards4"] = serial / L["solve.planar6.shards4.ms"];
}

}  // namespace e2e
