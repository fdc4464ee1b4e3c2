// scol-bench-load — Zipf-skewed load generator and correctness oracle
// for scol-serve.
//
// Builds a deterministic universe of request keys (bundled example
// graphs + generator scenarios, crossed with precondition-free
// algorithms and a few seeds), draws `--requests` keys from a Zipf
// distribution over that universe, and drives them through a daemon —
// either one it spawns itself over a stdin/stdout pipe (default) or an
// already-running TCP instance (--port). Requests are pipelined by a
// writer thread while the main thread reads responses in order.
//
// Every response is checked, not just timed: the envelope must be ok,
// the echoed id must match, and (unless --no-verify) the nested report
// must be BYTE-identical to the library's one-shot path — the same
// bytes `scol-cli --no-timing` prints for that request — with repeats
// of a key identical to its first response. The summary reports QPS,
// client-side latency percentiles, cache hit rates, and the server's
// own /stats payload.
//
//   $ scol-bench-load --requests 1000 --jobs 4
//   $ scol-bench-load --requests 10000 --theta 1.1 --pretty
//   $ scol-serve --port 0 ... ; scol-bench-load --port 43211
//
// Flags:
//   --requests N       solve requests to send (default 1000)
//   --theta T          Zipf skew over the key universe (default 0.9;
//                      0 = uniform)
//   --seed S           sampler seed (default 1)
//   --window N         max in-flight requests (default 256)
//   --jobs N           spawned daemon's --jobs (default 4)
//   --max-batch N      spawned daemon's --max-batch (default 64)
//   --serve-bin PATH   daemon binary (default: next to this binary)
//   --port P           drive an already-running daemon on 127.0.0.1:P
//                      instead of spawning one (no shutdown on exit)
//   --no-verify        skip the byte-identity oracle
//   --pretty           indent the summary JSON
//   --version / --help
//
// Exit code: 0 when every response was ok and verified, 1 on any failed
// response, byte mismatch, or daemon failure, 2 on usage errors.
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "parse_num.h"
#include "scol/api/oneshot.h"
#include "scol/serve/fdstream.h"
#include "scol/serve/zipf.h"
#include "scol/util/rng.h"
#include "scol/version.h"

namespace {

using namespace scol;
using Clock = std::chrono::steady_clock;

const char* kUsage =
    "usage: scol-bench-load [--requests N] [--theta T] [--seed S]\n"
    "                       [--window N] [--jobs N] [--max-batch N]\n"
    "                       [--serve-bin PATH | --port P] [--no-verify]\n"
    "                       [--pretty] [--version] [--help]\n"
    "exit codes: 0 all responses ok and byte-verified,\n"
    "            1 failed response / mismatch / daemon failure,\n"
    "            2 usage error\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "scol-bench-load: " << message << "\n" << kUsage;
  std::exit(2);
}

/// One request shape in the universe; `line` is pre-serialized except
/// for the id, which is appended per send.
struct RequestKey {
  OneShotSpec spec;
  std::string body;  // "\"gen\":...,\"algo\":...,..." (no braces/id)
};

std::string json_str(const std::string& s) { return Json::str(s).dump(); }

// The key universe: every bundled example graph and a spread of
// generator scenarios, crossed with algorithms that run on any simple
// graph (no structural precondition, no required params) and a few
// seeds. Sizes are kept small so a 10k-request mix finishes in seconds
// while still exercising parse, generate, probe-free solve, lists, and
// both cache layers.
std::vector<RequestKey> build_universe() {
  const std::string repo = SCOL_REPO_DIR;
  const std::vector<std::string> gens = {
      "grid:rows=12,cols=12",
      "cylinder:rows=10,cols=10",
      "hex:rows=10,cols=10",
      "planar:n=200",
      "regular:n=256,d=4",
      "gnm:n=256,m=640",
      "tree:n=300",
      "cycle-power:n=64,k=2",
      "file:path=" + repo + "/examples/graphs/grotzsch.col",
      "file:path=" + repo + "/examples/graphs/petersen.mtx",
      "file:path=" + repo + "/examples/graphs/heawood.edges",
      "file:path=" + repo + "/examples/graphs/grid8x8.graph",
  };
  const std::vector<std::string> algos = {"greedy", "dsatur", "degeneracy",
                                          "delta-list", "randomized"};
  std::vector<RequestKey> universe;
  for (const auto& gen : gens) {
    for (const auto& algo : algos) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        RequestKey key;
        key.spec.scenario = gen;
        key.spec.algorithm = algo;
        key.spec.seed = seed;
        key.spec.include_timing = false;  // the server's fixed mode
        key.spec.validate = true;
        key.body = json_str("gen") + ":" + json_str(gen) + "," +
                   json_str("algo") + ":" + json_str(algo) + "," +
                   json_str("seed") + ":" + std::to_string(seed);
        universe.push_back(std::move(key));
      }
    }
  }
  return universe;
}

struct Transport {
  int write_fd = -1;
  int read_fd = -1;
  pid_t child = -1;  // spawned daemon, -1 when connected via --port
};

std::string default_serve_bin(const char* argv0) {
  const std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  return slash == std::string::npos ? "scol-serve"
                                    : self.substr(0, slash + 1) +
                                          "scol-serve";
}

Transport spawn_daemon(const std::string& bin, int jobs, int max_batch) {
  int to_child[2], from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    std::cerr << "scol-bench-load: pipe() failed\n";
    std::exit(1);
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "scol-bench-load: fork() failed\n";
    std::exit(1);
  }
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    const std::string jobs_s = std::to_string(jobs);
    const std::string batch_s = std::to_string(max_batch);
    ::execl(bin.c_str(), bin.c_str(), "--jobs", jobs_s.c_str(),
            "--max-batch", batch_s.c_str(), static_cast<char*>(nullptr));
    // exec failed; the parent sees EOF on the response pipe.
    std::cerr << "scol-bench-load: cannot exec '" << bin << "'\n";
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  Transport t;
  t.write_fd = to_child[1];
  t.read_fd = from_child[0];
  t.child = pid;
  return t;
}

Transport connect_daemon(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    std::cerr << "scol-bench-load: cannot connect to 127.0.0.1:" << port
              << "\n";
    std::exit(1);
  }
  Transport t;
  t.write_fd = fd;
  t.read_fd = fd;
  return t;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-run must surface as a failed run, not kill
  // this process on the next pipe write.
  std::signal(SIGPIPE, SIG_IGN);
  std::int64_t requests = 1000;
  double theta = 0.9;
  std::uint64_t seed = 1;
  std::size_t window = 256;
  int jobs = 4;
  int max_batch = 64;
  std::string serve_bin = default_serve_bin(argv[0]);
  int port = -1;
  bool verify = true;
  bool pretty = false;

  const auto need_value =
      scol_cli_parse::value_reader(argc, argv, usage_error);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::cout << "scol-bench-load " << kVersion << "\n";
      return 0;
    } else if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--requests") {
      requests = scol_cli_parse::checked_int(
          need_value(i, "--requests"), "--requests", 1,
          std::numeric_limits<std::int64_t>::max(), usage_error);
      ++i;
    } else if (arg == "--theta") {
      theta = scol_cli_parse::checked_real(need_value(i, "--theta"),
                                           "--theta", 0.0, usage_error);
      ++i;
    } else if (arg == "--seed") {
      seed = scol_cli_parse::checked_seed(need_value(i, "--seed"), "--seed",
                                          usage_error);
      ++i;
    } else if (arg == "--window") {
      window = static_cast<std::size_t>(scol_cli_parse::checked_int(
          need_value(i, "--window"), "--window", 1,
          std::numeric_limits<std::int64_t>::max(), usage_error));
      ++i;
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--jobs"), "--jobs", 1,
          std::numeric_limits<int>::max(), usage_error));
      ++i;
    } else if (arg == "--max-batch") {
      max_batch = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--max-batch"), "--max-batch", 1,
          std::numeric_limits<int>::max(), usage_error));
      ++i;
    } else if (arg == "--serve-bin") {
      serve_bin = need_value(i, "--serve-bin");
      ++i;
    } else if (arg == "--port") {
      port = static_cast<int>(scol_cli_parse::checked_int(
          need_value(i, "--port"), "--port", 0, 65535, usage_error));
      ++i;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--pretty") {
      pretty = true;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  const std::vector<RequestKey> universe = build_universe();

  // Draw the whole request sequence up front: the mix is a pure
  // function of (seed, theta, requests), independent of timing.
  // Zipf rank → universe index through a seeded shuffle, so the hot
  // keys are not simply the first-constructed ones.
  std::vector<std::size_t> rank_to_key(universe.size());
  for (std::size_t i = 0; i < rank_to_key.size(); ++i) rank_to_key[i] = i;
  Rng rng(seed);
  rng.shuffle(rank_to_key);
  const ZipfSampler zipf(universe.size(), theta);
  std::vector<std::size_t> sequence(static_cast<std::size_t>(requests));
  for (auto& s : sequence) s = rank_to_key[zipf.draw(rng)];

  Transport transport = port >= 0
                            ? connect_daemon(port)
                            : spawn_daemon(serve_bin, jobs, max_batch);

  FdStreamBuf in_buf(transport.read_fd);
  FdStreamBuf out_buf(transport.write_fd);
  std::istream in(&in_buf);
  std::ostream out(&out_buf);

  const std::size_t n = sequence.size();
  // Send timestamps cross the writer→reader thread boundary as atomic
  // nanosecond counts (the matching response can't be read before its
  // request was sent, but the compiler doesn't know that).
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  std::vector<double> latency_ms(n, 0.0);
  const auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  };

  // Writer thread pipelines requests while the main thread reads
  // responses in order. The window bound keeps client memory and
  // server queues honest; flushing every 32 lines (and always before
  // blocking on the window) keeps the daemon fed while still giving
  // its batching something to batch.
  std::atomic<std::size_t> received{0};
  std::atomic<bool> dead{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (i - received.load(std::memory_order_acquire) >= window) {
        out.flush();
        while (i - received.load(std::memory_order_acquire) >= window) {
          if (dead.load(std::memory_order_acquire)) return;
          std::this_thread::yield();
        }
      }
      const RequestKey& key = universe[sequence[i]];
      sent_ns[i].store(now_ns(), std::memory_order_release);
      out << "{\"id\":" << i << "," << key.body << "}\n";
      if ((i + 1) % 32 == 0) out.flush();
    }
    out.flush();
  });

  const auto t_start = Clock::now();
  std::int64_t failed = 0;
  std::int64_t id_mismatches = 0;
  std::int64_t report_hits = 0;
  std::int64_t graph_hits = 0;
  std::int64_t mismatches = 0;
  std::int64_t repeat_mismatches = 0;
  // First response bytes per universe key; later responses must match.
  std::map<std::size_t, std::string> first_report;

  std::string line;
  bool stream_died = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) {
      std::cerr << "scol-bench-load: daemon stream ended after " << i
                << " of " << n << " responses\n";
      stream_died = true;
      break;
    }
    latency_ms[i] = static_cast<double>(
                        now_ns() -
                        sent_ns[i].load(std::memory_order_acquire)) /
                    1e6;
    received.store(i + 1, std::memory_order_release);
    try {
      const Json env = Json::parse(line);
      const Json* ok = env.get("ok");
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        ++failed;
        if (failed <= 3)
          std::cerr << "scol-bench-load: failed response: " << line << "\n";
        continue;
      }
      const Json* id = env.get("id");
      if (id == nullptr || !id->is_int() ||
          id->as_int() != static_cast<std::int64_t>(i))
        ++id_mismatches;
      const Json* cache = env.get("cache");
      if (cache != nullptr) {
        const Json* r = cache->get("report");
        const Json* g = cache->get("graph");
        if (r != nullptr && r->is_str() && r->as_str() == "hit")
          ++report_hits;
        if (g != nullptr && g->is_str() && g->as_str() == "hit")
          ++graph_hits;
      }
      const Json* report = env.get("report");
      if (report == nullptr) {
        ++failed;
        continue;
      }
      const std::string bytes = report->dump();
      auto [it, inserted] =
          first_report.emplace(sequence[i], bytes);
      if (!inserted && it->second != bytes) ++repeat_mismatches;
    } catch (const std::exception& e) {
      ++failed;
      if (failed <= 3)
        std::cerr << "scol-bench-load: bad response line: " << e.what()
                  << "\n";
    }
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             Clock::now() - t_start)
                             .count();
  if (stream_died) dead.store(true, std::memory_order_release);
  writer.join();

  // Server-side counters, then (for a spawned daemon) a clean shutdown.
  Json server_stats;
  if (!stream_died) {
    out << "{\"op\":\"stats\",\"id\":\"stats\"}\n";
    if (transport.child >= 0) out << "{\"op\":\"shutdown\"}\n";
    out.flush();
    if (std::getline(in, line)) {
      try {
        const Json env = Json::parse(line);
        const Json* stats = env.get("stats");
        if (stats != nullptr) server_stats = *stats;
      } catch (const std::exception&) {
      }
    }
    if (transport.child >= 0) std::getline(in, line);  // shutdown ack
  }
  if (transport.child >= 0) {
    ::close(transport.write_fd);
    ::close(transport.read_fd);
    int status = 0;
    ::waitpid(transport.child, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "scol-bench-load: daemon exited abnormally\n";
      stream_died = true;
    }
  } else {
    ::close(transport.write_fd);
  }

  // The byte-identity oracle: the first response of every key that
  // actually occurred must equal the library's one-shot report — the
  // exact bytes `scol-cli --no-timing` would print.
  std::int64_t verified = 0;
  if (verify) {
    for (const auto& [key_index, bytes] : first_report) {
      const std::string expected =
          one_shot_report(universe[key_index].spec).dump();
      ++verified;
      if (bytes != expected) {
        ++mismatches;
        if (mismatches <= 3)
          std::cerr << "scol-bench-load: report mismatch for key "
                    << key_index << ":\n  served:  " << bytes
                    << "\n  oneshot: " << expected << "\n";
      }
    }
  }

  std::vector<double> sorted(latency_ms.begin(), latency_ms.end());
  std::sort(sorted.begin(), sorted.end());

  Json summary = Json::object();
  summary.set("requests", Json::integer(requests));
  summary.set("universe",
              Json::integer(static_cast<std::int64_t>(universe.size())));
  summary.set("theta", Json::real(theta));
  summary.set("wall_ms", Json::real(wall_ms));
  summary.set("qps", Json::real(wall_ms > 0.0
                                    ? static_cast<double>(n) * 1000.0 /
                                          wall_ms
                                    : 0.0));
  Json lat = Json::object();
  lat.set("p50", Json::real(percentile(sorted, 0.50)));
  lat.set("p90", Json::real(percentile(sorted, 0.90)));
  lat.set("p99", Json::real(percentile(sorted, 0.99)));
  lat.set("max", Json::real(sorted.empty() ? 0.0 : sorted.back()));
  summary.set("latency_ms", std::move(lat));
  Json cache = Json::object();
  cache.set("report_hits", Json::integer(report_hits));
  cache.set("graph_hits", Json::integer(graph_hits));
  cache.set("report_hit_rate",
            Json::real(n > 0 ? static_cast<double>(report_hits) /
                                   static_cast<double>(n)
                             : 0.0));
  summary.set("cache", std::move(cache));
  summary.set("failed", Json::integer(failed));
  summary.set("id_mismatches", Json::integer(id_mismatches));
  Json ver = Json::object();
  ver.set("enabled", Json::boolean(verify));
  ver.set("keys_checked", Json::integer(verified));
  ver.set("mismatches", Json::integer(mismatches));
  ver.set("repeat_mismatches", Json::integer(repeat_mismatches));
  summary.set("verify", std::move(ver));
  if (!server_stats.is_null())
    summary.set("server_stats", std::move(server_stats));
  std::cout << summary.dump(pretty ? 2 : -1) << "\n";

  const bool ok = !stream_died && failed == 0 && id_mismatches == 0 &&
                  mismatches == 0 && repeat_mismatches == 0;
  return ok ? 0 : 1;
}
