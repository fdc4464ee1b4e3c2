// scol-cli — run any registered algorithm over any generator or
// file-backed scenario and emit a machine-readable JSON ColoringReport;
// `scol-cli campaign` runs a whole scenario x algorithm x seed grid with
// the consistency oracle; `scol-cli probe` reports a graph's certified
// structure and which algorithms' preconditions it satisfies.
//
//   $ scol-cli --algo sparse --gen regular:n=512,d=4 --k 4
//   $ scol-cli --algo gps --gen planar:n=800 --pretty
//   $ scol-cli --algo greedy --gen file:path=examples/graphs/grotzsch.col
//   $ scol-cli probe --gen file:path=my.mtx       # structure + eligibility
//   $ scol-cli gen --gen rmat:scale=20 --out big.edges   # materialize
//   $ scol-cli --list-algos        # registry contents
//   $ scol-cli --list-gens         # scenario vocabulary
//   $ scol-cli campaign --gen grid --gen regular:n=64,d=4 --algo greedy
//       --algo sparse --seeds 5 --jobs 4 --out runs.jsonl
//   $ scol-cli campaign --gen file:path=g.col --algo all --seeds 3
//
// Flags:
//   --algo NAME        algorithm (required unless listing)
//   --gen SPEC         scenario spec "name:key=val,..." (default grid)
//   --k K              palette-ish parameter / uniform list size
//                      (default max degree + 1 when lists are needed)
//   --lists MODE       uniform | random (palette subsets; default uniform)
//   --palette P        palette size for --lists random (default 4k)
//   --param key=val    per-algorithm parameter (repeatable)
//   --seed S           scenario + algorithm seed (default 1)
//   --threads T        run under a ThreadPoolExecutor with T threads
//   --shards P         run under a ShardedExecutor with P CSR shards:
//                      LOCAL rounds with counted boundary exchange;
//                      results are bit-identical to serial, the report
//                      gains the exchange telemetry metrics
//   --no-exchange-metrics   suppress that telemetry (sharded output is
//                      then byte-identical to the serial report)
//   --round-budget R   RunContext round budget
//   --deadline-ms D    RunContext wall-clock budget
//   --no-validate      skip the independent output validation
//   --with-coloring    include the full coloring in the JSON
//   --no-timing        zero wall_ms in the report (byte-stable output —
//                      what scol-serve caches and scol-bench-load checks)
//   --pretty           indent the JSON
//   --list-algos       print the algorithm registry and exit
//   --list-gens        print the scenario vocabulary and exit
//   --version          print version and exit
//   --help             usage and exit-code summary
//
// Campaign mode (`scol-cli campaign`):
//   --gen SPEC         scenario axis (repeatable; default grid)
//   --algo NAME        algorithm axis (repeatable; "all" = whole registry)
//   --seed S           first seed (default 1)
//   --seeds N          seeds per scenario (default 1)
//   --k / --lists / --palette / --param / --round-budget as above
//   --algo-param NAME:key=val   per-algorithm param override (repeatable)
//   --jobs N           thread pool over instances — one instance is all
//                      algorithms on one generated graph (default 1)
//   --shards P         every job solves under a P-shard ShardedExecutor;
//                      each line gains a "shards" field + exchange
//                      telemetry metrics (default 1 = serial)
//   --no-exchange-metrics   suppress the telemetry: the stream is then
//                      byte-identical to the serial stream for every P
//   --shard i/m        run shard i of m (instances round-robin)
//   --out FILE         JSONL to FILE, summary to stdout (default: JSONL to
//                      stdout, summary to stderr); FILE appears only once
//                      complete, and one that cannot be opened or
//                      written exits 1 and leaves no file behind
//   --summary-only     no JSONL at all: per-job serialization is skipped
//                      (the fast path for pure throughput / summary runs);
//                      summary to stdout. Mutually exclusive with --out
//   --with-timing      real per-line wall_ms (breaks stream bit-identity)
//   --no-probe         disable the probe filter: ineligible cells fail
//                      with a PreconditionError message instead of
//                      becoming status:"skipped" lines
//   --planarity-limit N / --girth-limit L / --mad-limit N
//                      probe cost bounds (same flags as `scol-cli probe`,
//                      so a probe dry run predicts the campaign's skips)
//   --probe-budget B   sampled probes on instances with n + m > B
//                      (certified-but-weaker facts; see io/probe.h)
//   --pretty           indent the summary JSON
//   --help             campaign usage and exit
//
// Probe mode (`scol-cli probe`):
//   --gen SPEC         scenario to probe (generator or file:path=...)
//   --k K              effective k for eligibility (default: per-algorithm
//                      auto, max(3, max_degree + 1) for list algorithms)
//   --param key=val    params visible to precondition checks (repeatable)
//   --seed S           scenario seed (default 1)
//   --planarity-limit N / --girth-limit L / --mad-limit N  probe bounds
//   --probe-budget B   sampled mode above n + m > B (0 = always exact)
//   --pretty           indent the JSON
//   --help             probe usage and exit
//   Prints {scenario, probe, algorithms:[{name, eligible, reason?, k}]}.
//
// Gen mode (`scol-cli gen`):
//   --gen SPEC         scenario to materialize (default grid)
//   --seed S           scenario seed (default 1)
//   --out FILE         output path (required; extension picks the format)
//   --format F         override the format (dimacs|metis|mtx|edges)
//   --help             gen usage and exit
//   Writes the graph with scol's own writers and prints one JSON line
//   {spec, seed, path, format, n, m} — the big-graph pipeline's first
//   stage (gen -> parallel read -> probe -> solve). A graph the format
//   cannot represent (an edge list with an isolated vertex) or a failed
//   write exits 1 and leaves no file at FILE.
//
// Every mode declares its flags once, as a table for parse_flags
// (parse_num.h).
//
// Exit code: 0 for a kColored/kInfeasible report (both are answers),
// 1 for kFailed (or, in campaign mode, any oracle violation), 2 for
// usage errors.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "parse_num.h"
#include "scol/api/api.h"
#include "scol/api/oneshot.h"
#include "scol/io/io.h"
#include "scol/util/executor.h"
#include "scol/util/file.h"
#include "scol/version.h"

namespace {

using namespace scol;
namespace cli = scol_cli_parse;

const char* kUsage =
    "usage: scol-cli --algo NAME [--gen SPEC] [--k K] "
    "[--lists uniform|random] [--palette P]\n"
    "                [--param key=val]... [--seed S] "
    "[--threads T | --shards P] [--round-budget R]\n"
    "                [--deadline-ms D] [--no-validate] "
    "[--with-coloring] [--no-timing] [--pretty]\n"
    "       scol-cli campaign ... | scol-cli probe ... | scol-cli gen ...\n"
    "       scol-cli --list-algos | --list-gens | --version | --help\n"
    "exit codes: 0 colored or infeasible (both are answers; campaign: "
    "no oracle violation),\n"
    "            1 failed report / oracle violation / runtime failure, "
    "2 usage error\n";
const char* kProbeUsage =
    "usage: scol-cli probe [--gen SPEC] [--k K] [--seed S] "
    "[--param key=val]...\n"
    "                [--planarity-limit N] [--girth-limit L] "
    "[--mad-limit N]\n"
    "                [--probe-budget B] [--pretty]\n";
const char* kGenUsage =
    "usage: scol-cli gen [--gen SPEC] [--seed S] --out FILE "
    "[--format dimacs|metis|mtx|edges]\n";
const char* kCampaignUsage =
    "usage: scol-cli campaign [--gen SPEC]... --algo NAME|all "
    "[--algo NAME]...\n"
    "                [--seed S] [--seeds N] [--k K] "
    "[--lists uniform|random] [--palette P]\n"
    "                [--param key=val]... "
    "[--algo-param NAME:key=val]... [--round-budget R]\n"
    "                [--jobs N] [--shards P] "
    "[--no-exchange-metrics] [--shard i/m]\n"
    "                [--out FILE | "
    "--summary-only] [--with-timing] [--no-probe]\n"
    "                [--planarity-limit N] [--girth-limit L] "
    "[--mad-limit N]\n"
    "                [--probe-budget B] [--pretty]\n";

const cli::Program kRun{"scol-cli", kUsage};
const cli::Program kProbe{"scol-cli probe", kProbeUsage};
const cli::Program kGen{"scol-cli gen", kGenUsage};
const cli::Program kCampaign{"scol-cli campaign", kCampaignUsage};

// `--param key=val`, shared by the run, probe and campaign modes.
cli::Flag param_flag(ParamBag* params) {
  return cli::with("--param",
                   [params](const std::string& v) { parse_param(*params, v); });
}

// The probe cost flags of `probe` and `campaign`, appended to `flags`.
std::vector<cli::Flag> with_probe_flags(ProbeOptions* options,
                                        std::vector<cli::Flag> flags) {
  flags.insert(flags.end(),
               {cli::integer("--planarity-limit", &options->planarity_limit, 0),
                cli::integer("--girth-limit", &options->girth_limit, 0),
                cli::integer("--mad-limit", &options->exact_mad_limit, 0),
                cli::integer("--probe-budget", &options->budget, 0)});
  return flags;
}

void list_algorithms() {
  Json arr = Json::array();
  for (const auto& name : AlgorithmRegistry::instance().names()) {
    const AlgorithmInfo& info = AlgorithmRegistry::instance().at(name);
    Json obj = Json::object();
    obj.set("name", Json::str(info.name));
    obj.set("summary", Json::str(info.summary));
    obj.set("needs_lists", Json::boolean(info.caps.needs_lists));
    obj.set("uses_k", Json::boolean(info.caps.uses_k));
    obj.set("randomized", Json::boolean(info.caps.randomized));
    obj.set("distributed", Json::boolean(info.caps.distributed));
    obj.set("proves_infeasibility",
            Json::boolean(info.caps.proves_infeasibility));
    Json kinds = Json::array();
    for (const auto& k : info.caps.certificate_kinds)
      kinds.push(Json::str(k));
    obj.set("certificate_kinds", std::move(kinds));
    arr.push(std::move(obj));
  }
  std::cout << arr.dump(2) << "\n";
}

void list_scenarios() {
  Json arr = Json::array();
  for (const auto& name : ScenarioRegistry::instance().names()) {
    const ScenarioInfo& info = ScenarioRegistry::instance().at(name);
    Json obj = Json::object();
    obj.set("name", Json::str(info.name));
    obj.set("summary", Json::str(info.summary));
    arr.push(std::move(obj));
  }
  std::cout << arr.dump(2) << "\n";
}

// `scol-cli gen ...`: materialize one scenario to a graph file — the
// first stage of the big-graph pipeline (gen -> parallel read -> sampled
// probe -> solve) and the generator half of the reader differential
// tests.
int gen_main(int argc, char** argv) {
  std::string gen = "grid";
  std::string out_path;
  std::string format_arg = "auto";
  std::uint64_t seed = 1;
  cli::parse_flags(argc, argv, 2, kGen,
                   {cli::text("--gen", &gen), cli::seed("--seed", &seed),
                    cli::text("--out", &out_path),
                    cli::text("--format", &format_arg),
                    cli::print("--help", kGenUsage)});
  if (out_path.empty()) cli::usage_error(kGen, "--out is required");

  Graph g;
  GraphFormat format = GraphFormat::kAuto;
  try {
    Rng rng(seed);
    g = build_scenario(gen, rng);
    format = parse_format(format_arg);
    if (format == GraphFormat::kAuto) format = sniff_format(out_path, "");
  } catch (const std::exception& e) {
    std::cerr << "scol-cli gen: " << e.what() << "\n";
    return 2;
  }
  // A graph the format cannot hold, or a failed write, is a runtime
  // failure; write_graph_file leaves no file behind either way.
  try {
    write_graph_file(out_path, g, format);
  } catch (const std::exception& e) {
    std::cerr << "scol-cli gen: " << e.what() << "\n";
    return 1;
  }
  Json out = Json::object();
  out.set("spec", Json::str(gen));
  out.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
  out.set("path", Json::str(out_path));
  out.set("format", Json::str(format_name(format)));
  out.set("n", Json::integer(g.num_vertices()));
  out.set("m", Json::integer(g.num_edges()));
  std::cout << out.dump(-1) << "\n";
  return 0;
}

// `scol-cli probe ...`: certified structure of one scenario's graph plus
// the per-algorithm eligibility verdicts — the dry-run companion of
// `campaign --algo all` over arbitrary files.
int probe_main(int argc, char** argv) {
  std::string gen = "grid";
  Vertex k = -1;
  std::uint64_t seed = 1;
  bool pretty = false;
  ParamBag params;
  ProbeOptions probe_options;
  cli::parse_flags(argc, argv, 2, kProbe,
                   with_probe_flags(&probe_options,
                                    {cli::text("--gen", &gen),
                                     cli::integer("--k", &k, -1),
                                     cli::seed("--seed", &seed),
                                     param_flag(&params),
                                     cli::set("--pretty", &pretty, true),
                                     cli::print("--help", kProbeUsage)}));

  try {
    Rng rng(seed);
    const Graph g = build_scenario(gen, rng);
    const GraphProbe probe = probe_graph(g, probe_options);

    Json out = Json::object();
    out.set("scenario", scenario_json(gen, g));
    out.set("probe", to_json(probe));
    out.set("k", Json::integer(k));
    out.set("seed", Json::integer(static_cast<std::int64_t>(seed)));

    // Mirror the campaign's per-job auto-k (effective_k) so the
    // verdicts here predict exactly what `campaign --algo all` would
    // skip, given the same --k/--param/probe-limit values.
    Json algorithms = Json::array();
    for (const auto& name : AlgorithmRegistry::instance().names()) {
      const AlgorithmInfo& info = AlgorithmRegistry::instance().at(name);
      const Vertex k_eff = effective_k(info, k, g.max_degree(), params);
      const std::string reason = algorithm_skip_reason(
          info, EligibilityQuery{&probe, &params, k_eff});
      Json entry = Json::object();
      entry.set("name", Json::str(name));
      entry.set("eligible", Json::boolean(reason.empty()));
      if (!reason.empty()) entry.set("reason", Json::str(reason));
      entry.set("k", Json::integer(k_eff));
      algorithms.push(std::move(entry));
    }
    out.set("algorithms", std::move(algorithms));
    std::cout << out.dump(pretty ? 2 : -1) << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scol-cli probe: " << e.what() << "\n";
    return 2;
  }
}

// `scol-cli campaign ...`: the grid runner. JSONL goes to --out (or
// stdout), the aggregate summary to stdout (or stderr when the lines own
// stdout), and the exit code surfaces oracle violations.
int campaign_main(int argc, char** argv) {
  CampaignSpec spec;
  CampaignOptions options;
  int jobs = 1;
  bool pretty = false;
  bool summary_only = false;
  std::string out_path;
  cli::parse_flags(
      argc, argv, 2, kCampaign,
      with_probe_flags(
          &spec.probe_options,
          {cli::with("--gen",
                     [&](const std::string& v) {
                       spec.scenarios.push_back(v);
                     }),
           cli::with("--algo",
                     [&](const std::string& name) {
                       if (name != "all") {
                         spec.algorithms.push_back(name);
                         return;
                       }
                       for (const auto& n :
                            AlgorithmRegistry::instance().names())
                         spec.algorithms.push_back(n);
                     }),
           cli::seed("--seed", &spec.seed),
           cli::integer("--seeds", &spec.seeds, 1),
           cli::integer("--k", &spec.k, -1),
           cli::text("--lists", &spec.lists_mode),
           cli::integer("--palette", &spec.palette, -1),
           param_flag(&spec.params),
           cli::with("--algo-param",
                     [&](const std::string& v) {
                       const std::size_t colon = v.find(':');
                       if (colon == std::string::npos || colon == 0 ||
                           colon + 1 == v.size())
                         throw cli::UsageError(
                             "--algo-param wants NAME:key=val, got '" + v +
                             "'");
                       ParamBag bag;
                       parse_param(bag, v.substr(colon + 1));
                       spec.algo_params.emplace_back(v.substr(0, colon),
                                                     std::move(bag));
                     }),
           cli::integer("--round-budget", &spec.round_budget, -1),
           cli::integer("--jobs", &jobs, 1),
           cli::integer("--shards", &spec.exec_shards, 1),
           cli::set("--no-exchange-metrics", &spec.exchange_metrics, false),
           cli::with("--shard",
                     [&](const std::string& v) {
                       cli::checked_shard_spec(v, &options.shard_index,
                                               &options.shard_count);
                     }),
           cli::text("--out", &out_path),
           cli::set("--with-timing", &options.include_timing, true),
           cli::set("--summary-only", &summary_only, true),
           cli::set("--no-probe", &spec.probe, false),
           cli::set("--pretty", &pretty, true),
           cli::print("--help", kCampaignUsage)}));
  if (spec.scenarios.empty()) spec.scenarios.push_back("grid");
  if (spec.algorithms.empty())
    cli::usage_error(kCampaign, "--algo is required (name or 'all')");
  if (summary_only && !out_path.empty())
    cli::usage_error(kCampaign,
                     "--summary-only and --out are mutually exclusive");

  try {
    // grain=1: the unit of job-level work is one instance, not 256.
    std::unique_ptr<ThreadPoolExecutor> pool;
    if (jobs > 1) {
      pool = std::make_unique<ThreadPoolExecutor>(jobs, /*grain=*/1);
      options.executor = pool.get();
    }

    // --summary-only passes an empty sink: run_campaign's fast path then
    // skips per-job JSONL serialization entirely.
    const auto run = [&](std::ostream& lines) {
      CampaignSink sink;
      if (!summary_only)
        sink = [&](const std::string& line) { lines << line << "\n"; };
      return run_campaign(spec, options, sink);
    };
    CampaignResult result;
    if (out_path.empty()) {
      result = run(std::cout);
      std::cout.flush();
      if (!std::cout) {
        // Runtime failure (closed pipe), not a usage error: the JSONL
        // stream is truncated, so don't pretend the run succeeded.
        std::cerr << "scol-cli campaign: write to stdout failed; JSONL "
                     "stream is incomplete\n";
        return 1;
      }
    } else {
      // The JSONL appears at --out only once it is complete.
      write_file_atomically(out_path,
                            [&](std::ostream& lines) { result = run(lines); });
    }
    std::ostream& summary =
        (out_path.empty() && !summary_only) ? std::cerr : std::cout;
    summary << result.summary.dump(pretty ? 2 : -1) << "\n";
    return result.oracle_violations > 0 ? 1 : 0;
  } catch (const FileWriteError& e) {
    // --out cannot be opened, written or moved into place: a runtime
    // failure, and no file (nor its temp sibling) is left behind.
    std::cerr << "scol-cli campaign: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "scol-cli campaign: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "campaign")
    return campaign_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "probe")
    return probe_main(argc, argv);
  if (argc > 1 && std::string(argv[1]) == "gen")
    return gen_main(argc, argv);
  // The run itself is delegated to one_shot_report() — the same code
  // path scol-serve answers requests with, which is what makes served
  // responses byte-identical to this binary's output by construction.
  OneShotSpec spec;
  bool pretty = false;
  cli::parse_flags(
      argc, argv, 1, kRun,
      {cli::on("--list-algos",
               [] {
                 list_algorithms();
                 std::exit(0);
               }),
       cli::on("--list-gens",
               [] {
                 list_scenarios();
                 std::exit(0);
               }),
       cli::print("--version", std::string("scol-cli ") + kVersion + "\n"),
       cli::print("--help", kUsage),
       cli::text("--algo", &spec.algorithm),
       cli::text("--gen", &spec.scenario),
       cli::with("--lists",
                 [&](const std::string& v) {
                   if (v != "uniform" && v != "random")
                     throw cli::UsageError("--lists must be uniform or random");
                   spec.lists_mode = v;
                 }),
       cli::integer("--k", &spec.k, -1),
       cli::integer("--palette", &spec.palette, -1),
       param_flag(&spec.params),
       cli::seed("--seed", &spec.seed),
       cli::integer("--threads", &spec.threads, 0),
       cli::integer("--shards", &spec.shards, 1),
       cli::set("--no-exchange-metrics", &spec.exchange_metrics, false),
       cli::integer("--round-budget", &spec.round_budget, -1),
       cli::real("--deadline-ms", &spec.deadline_ms, -1.0),
       cli::set("--no-validate", &spec.validate, false),
       cli::set("--with-coloring", &spec.with_coloring, true),
       cli::set("--no-timing", &spec.include_timing, false),
       cli::set("--pretty", &pretty, true)});
  if (spec.algorithm.empty()) cli::usage_error(kRun, "--algo is required");
  if (spec.threads > 0 && spec.shards > 0)
    cli::usage_error(kRun, "--threads and --shards are mutually exclusive");

  try {
    const Json out = one_shot_report(spec);
    std::cout << out.dump(pretty ? 2 : -1) << "\n";
    return one_shot_exit_code(out);
  } catch (const std::exception& e) {
    std::cerr << "scol-cli: " << e.what() << "\n";
    return 2;
  }
}
