// scol-e2e — the end-to-end benchmark program.
//
//   scol-e2e --workload NAME --seed S --seconds T --trace 0|1
//            --state-dir DIR --serve-bin PATH
//
// Runs one workload (ingest-rmat18, lists-rmat15, planar-paper, serve-mix)
// for about T seconds on inputs generated from S, checks every output, and
// prints as its last line one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"op_s": {"value": 3.71, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans, writes them to DIR/traces/NAME-seedS.json (Chrome
// trace-event JSON) and prints the per-layer metrics instead.
//
// Deterministic counts (colors, LOCAL rounds per ledger phase, list
// entries, bytes read and emitted, exchange messages, serve solves) must
// repeat exactly: within a run across operations, and across runs of one
// seed through DIR/counts/NAME-seedS.json, written by the first run. A
// count that changes means the program changed; it is never noise.
//
// Exit code: 0 when every operation passed its checks, 1 on any failed
// operation, changed count or set-up failure, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "scol/api/json.h"

namespace e2e {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"},          {"op_s", "s"},
      {"peak_rss_mb", "MB"},     {"colors_used", "count"},
      {"local_rounds", "count"}, {"ok_ratio", "ratio"},
      {"serve_rps", "1/s"},      {"serve_p50_ms", "ms"},
      {"serve_p99_ms", "ms"},    {"serve_miss_p50_ms", "ms"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = [] {
    std::vector<MetricSpec> v = {
        {"gen.ms", "ms"},
        {"io.write.ms", "ms"},
        {"io.read.ms", "ms"},
        {"io.read.mb_s", "MB/s"},
        {"io.read.bytes", "bytes"},
        {"probe.exact.ms", "ms"},
        {"probe.sampled.ms", "ms"},
        {"lists.ms", "ms"},
        {"lists.entries", "count"},
        {"lists.rss_mb", "MB"},
    };
    for (const char* s :
         {"solve.degeneracy.ms", "solve.linial.ms", "solve.randomized.ms",
          "solve.dplus1-sparsified.ms", "solve.planar6.ms",
          "solve.planar6.threads4.ms", "solve.planar6.shards4.ms",
          "solve.gps.ms", "solve.barenboim-elkin.ms"})
      v.push_back({s, "ms"});
    for (const char* s :
         {"solve.degeneracy.colors", "solve.linial.colors",
          "solve.randomized.colors", "solve.dplus1-sparsified.colors",
          "solve.planar6.colors", "solve.gps.colors",
          "solve.barenboim-elkin.colors",
          "solve.linial.rounds.k-coloring",
          "solve.randomized.rounds.randomized-coloring",
          "solve.dplus1-sparsified.rounds.sparsified-attempts",
          "solve.planar6.rounds.clique-detect",
          "solve.planar6.rounds.peel-balls",
          "solve.planar6.rounds.ruling-forest",
          "solve.planar6.rounds.h-coloring", "solve.planar6.rounds.sweep",
          "solve.planar6.rounds.ert-balls", "solve.gps.rounds.peel",
          "solve.gps.rounds.aux-coloring", "solve.gps.rounds.recolor",
          "solve.barenboim-elkin.rounds.peel",
          "solve.barenboim-elkin.rounds.aux-coloring",
          "solve.barenboim-elkin.rounds.recolor"})
      v.push_back({s, "count"});
    const std::vector<MetricSpec> rest = {
        {"solve.dplus1-sparsified.fallback_ratio", "ratio"},
        {"executor.pool_setup.ms", "ms"},
        {"executor.shard_setup.ms", "ms"},
        {"executor.exchange_messages", "count"},
        {"executor.exchange_bytes", "bytes"},
        {"executor.speedup.threads4", "x"},
        {"executor.speedup.shards4", "x"},
        {"validate.ms", "ms"},
        {"emit.ms", "ms"},
        {"emit.bytes", "bytes"},
        {"serve.report_hit_ratio", "ratio"},
        {"serve.graph_hit_ratio", "ratio"},
        {"serve.graph_evictions", "count"},
        {"serve.solves", "count"},
        {"serve.batch_mean", "count"},
        {"serve.queue_ms_p50", "ms"},
        {"serve.solve_ms_p50", "ms"},
        {"serve.hit_p50_ms", "ms"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb(bool children) {
  rusage u{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const scol::Json& metadata) const {
  using scol::Json;
  Json events = Json::array();
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    Json args = s.args.is_object() ? s.args : Json::object();
    args.set("id", Json::integer(static_cast<std::int64_t>(i)));
    args.set("parent", Json::integer(s.parent));
    args.set("op", Json::integer(s.op));
    Json e = Json::object();
    e.set("name", Json::str(s.name));
    e.set("cat", Json::str(s.name.substr(0, s.name.find('.'))));
    e.set("ph", Json::str("X"));
    e.set("ts", Json::real(static_cast<double>(s.start_ns) / 1e3));
    e.set("dur", Json::real(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    e.set("pid", Json::integer(1));
    e.set("tid", Json::integer(s.tid));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::str("ms"));
  doc.set("metadata", metadata);
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace e2e

namespace {

using namespace e2e;
using scol::Json;

const char* kUsage =
    "usage: scol-e2e --workload NAME --seed S --seconds T --trace 0|1\n"
    "                --state-dir DIR --serve-bin PATH\n"
    "workloads: ingest-rmat18 lists-rmat15 planar-paper serve-mix\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "scol-e2e: " << message << "\n" << kUsage;
  std::exit(2);
}

/// Compares this run's counts with the record of the seed's first clean
/// run, or records them when there is none and `clean`; returns the
/// differences.
std::vector<std::string> check_count_record(
    const std::string& path, const std::map<std::string, std::int64_t>& counts,
    bool clean) {
  std::vector<std::string> diffs;
  if (!std::filesystem::exists(path)) {
    if (!clean) return diffs;
    Json rec = Json::object();
    for (const auto& [k, v] : counts) rec.set(k, Json::integer(v));
    std::ofstream(path) << rec.dump(2) << "\n";
    return diffs;
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const Json record = Json::parse(text.str());
  std::map<std::string, std::int64_t> recorded;
  for (const auto& [k, v] : record.members())
    recorded[k] = v.as_int();
  for (const auto& [k, v] : counts) {
    auto it = recorded.find(k);
    if (it == recorded.end())
      diffs.push_back(k + " is new (" + std::to_string(v) + ")");
    else if (it->second != v)
      diffs.push_back(k + " was " + std::to_string(it->second) + ", now " +
                      std::to_string(v));
  }
  for (const auto& [k, v] : recorded)
    if (!counts.count(k))
      diffs.push_back(k + " is gone (was " + std::to_string(v) + ")");
  return diffs;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-run must surface as a failed write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value, &used);
        have_seed = used == value.size() && value[0] != '-';
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && options.seconds > 0;
      } else if (arg == "--trace") {
        have_trace = value == "0" || value == "1";
        options.trace = value == "1";
      } else if (arg == "--state-dir") {
        options.state_dir = value;
      } else if (arg == "--serve-bin") {
        options.serve_bin = value;
      } else {
        usage_error("unknown flag '" + arg + "'");
      }
    } catch (const std::exception&) {
      usage_error("bad value '" + value + "' for " + arg);
    }
  }
  const bool serve = options.workload == "serve-mix";
  if (!serve && options.workload != "ingest-rmat18" &&
      options.workload != "lists-rmat15" && options.workload != "planar-paper")
    usage_error("unknown workload '" + options.workload + "'");
  if (!have_seed || !have_seconds || !have_trace || options.state_dir.empty() ||
      options.serve_bin.empty())
    usage_error(
        "--seed, --seconds, --trace, --state-dir and --serve-bin are required");

  const std::string tag =
      options.workload + "-seed" + std::to_string(options.seed);
  Tracer tracer(options.trace);
  Outcome out;
  try {
    std::filesystem::create_directories(options.state_dir + "/counts");
    if (serve)
      run_serve_mix(options, tracer, out);
    else
      run_batch(options, tracer, out);
    const std::string record = options.state_dir + "/counts/" + tag + ".json";
    for (const std::string& d :
         check_count_record(record, out.counts, out.failed == 0))
      out.fail("count changed since this seed's first run: " + d);
  } catch (const std::exception& e) {
    std::cerr << "scol-e2e: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  out.instance.set("workload", Json::str(options.workload));
  out.instance.set("seed",
                   Json::integer(static_cast<std::int64_t>(options.seed)));
  out.instance.set("nproc", Json::integer(nproc));
  out.instance.set("build_type", Json::str(SCOL_E2E_BUILD_TYPE));
  out.instance.set("compiler", Json::str(SCOL_E2E_COMPILER));
  out.instance.set("operations", Json::integer(static_cast<std::int64_t>(
                                      out.op_seconds.size())));

  if (options.trace) {
    std::filesystem::create_directories(options.state_dir + "/traces");
    Json ops = Json::array();
    for (const double s : out.op_seconds) ops.push(Json::real(s));
    Json meta = out.instance;
    meta.set("op_seconds", std::move(ops));
    try {
      tracer.write_chrome_trace(
          options.state_dir + "/traces/" + tag + ".json", meta);
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }
  out.end_to_end["ok_ratio"] =
      1.0 - static_cast<double>(out.failed) /
                static_cast<double>(std::max<std::int64_t>(out.attempted, 1));

  for (const std::string& e : out.errors)
    std::cerr << "scol-e2e: FAILED " << e << "\n";
  std::cout << "instance " << out.instance.dump() << "\n";
  const auto& specs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = options.trace ? out.per_layer : out.end_to_end;
  Json metrics = Json::object();
  for (const MetricSpec& m : specs) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-52s %16.6f %s\n", m.name, v, m.unit);
    Json metric = Json::object();
    metric.set("value", Json::real(v));
    metric.set("unit", Json::str(m.unit));
    metrics.set(m.name, std::move(metric));
  }
  Json result = Json::object();
  result.set("correct", Json::boolean(out.failed == 0));
  result.set("attempted", Json::integer(out.attempted));
  result.set("failed", Json::integer(out.failed));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return out.failed == 0 ? 0 : 1;
}
