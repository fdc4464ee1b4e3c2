// The serve-mix workload: a Zipf mix of medium-graph requests driven over
// scol-serve's NDJSON wire by one closed-loop client on one connection.
//
// One operation (a "pass") starts a fresh daemon and sends one fixed request
// sequence, so every pass does the same work from cold caches: each
// distinct key misses once, graphs beyond the graph cache are evicted and
// rebuilt, the rest are report-cache hits. The seed picks the graphs. After
// the last pass every distinct response is compared byte for byte with
// one_shot_report() for its key, and every repeat with the key's first
// response.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "scol/api/json.h"
#include "scol/api/oneshot.h"
#include "scol/serve/protocol.h"
#include "scol/serve/zipf.h"
#include "scol/util/rng.h"

extern char** environ;

namespace e2e {
namespace {

using namespace scol;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kRequestsPerPass = 8000;
/// Requests in flight. Larger rounds put hits behind the misses of their
/// round: at 16 the overall p50 sits between hit-only and mixed rounds and
/// swung by 20% between seeds.
constexpr std::size_t kWindow = 8;
constexpr double kTheta = 0.9;
constexpr std::uint64_t kSequenceSeed = 0x5eed;
constexpr int kPollTimeoutMs = 60000;

struct Family {
  const char* gen;
  bool sparse;  ///< mad < 6: planar6 and gps apply
  int seeds;
};

// 4 x 16 random graphs + 3 regular graphs + the grid (the same graph for
// every seed) are 68 distinct graphs, more than the daemon's default graph
// cache of 64, so evictions and rebuilds are part of every pass. The
// regular generator takes ~150 ms per graph against <= 10 ms for the
// others, so it gets few seeds: with as many as the rest, its rebuilds
// would be most of the pass.
const Family kFamilies[] = {
    {"planar:n=2000", true, 16},        {"planar:n=5000", true, 16},
    {"rmat:scale=10", false, 16},       {"rmat:scale=11", false, 16},
    {"grid:rows=60,cols=60", true, 4},  {"regular:n=4096", true, 3},
};

struct Key {
  std::string body;  ///< request fields without braces or id
  std::int64_t paper_bound = -1;
};

std::vector<Key> build_universe(std::uint64_t seed) {
  std::vector<Key> keys;
  const std::uint64_t base = (seed % 1'000'000) * 100 + 1;
  for (const Family& f : kFamilies) {
    for (int j = 0; j < f.seeds; ++j) {
      const std::string head =
          "\"gen\":" + Json::str(f.gen).dump() + ",\"seed\":" +
          std::to_string(base + static_cast<std::uint64_t>(j));
      keys.push_back({head + ",\"algo\":\"greedy\"", -1});
      keys.push_back({head + ",\"algo\":\"degeneracy\"", -1});
      keys.push_back(
          {head + ",\"algo\":\"randomized\",\"lists\":\"random\"", -1});
      if (f.sparse) {
        keys.push_back({head + ",\"algo\":\"planar6\",\"k\":6", 6});
        keys.push_back({head + ",\"algo\":\"gps\",\"k\":7", 7});
      }
    }
  }
  return keys;
}

// ---------------------------------------------------------------- daemon

struct Daemon {
  pid_t pid = -1;
  int to_fd = -1;    ///< daemon's stdin
  int from_fd = -1;  ///< daemon's stdout
  std::string inbuf;
};

Daemon spawn_daemon(const std::string& bin, int jobs) {
  int in_pipe[2], out_pipe[2];
  if (pipe(in_pipe) != 0) throw std::runtime_error("pipe failed");
  if (pipe(out_pipe) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
    posix_spawn_file_actions_addclose(&fa, fd);
  const std::string jobs_arg = std::to_string(jobs);
  std::vector<char*> argv = {const_cast<char*>(bin.c_str()),
                             const_cast<char*>("--jobs"),
                             const_cast<char*>(jobs_arg.c_str()), nullptr};
  Daemon d;
  const int rc =
      posix_spawn(&d.pid, bin.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
  }
  d.to_fd = in_pipe[1];
  d.from_fd = out_pipe[0];
  return d;
}

/// Closes the daemon's stdin (EOF ends pipe mode cleanly) and reaps it;
/// kills it if it has not exited within 10 s.
void stop_daemon(Daemon& d) {
  if (d.to_fd >= 0) close(d.to_fd);
  d.to_fd = -1;
  int status = 0;
  for (int i = 0; i < 1000 && d.pid > 0; ++i) {
    const pid_t r = waitpid(d.pid, &status, WNOHANG);
    if (r == d.pid || (r < 0 && errno != EINTR)) {
      d.pid = -1;
      break;
    }
    usleep(10000);
  }
  if (d.pid > 0) {
    kill(d.pid, SIGKILL);
    while (waitpid(d.pid, &status, 0) < 0 && errno == EINTR) {
    }
    d.pid = -1;
  }
  if (d.from_fd >= 0) close(d.from_fd);
  d.from_fd = -1;
}

/// Blocking write. Requests go out only once every earlier response has
/// been read, so the daemon is never stuck writing to us meanwhile.
void write_all(Daemon& d, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t w = write(d.to_fd, text.data() + done, text.size() - done);
    if (w > 0)
      done += static_cast<std::size_t>(w);
    else if (!(w < 0 && errno == EINTR))
      throw std::runtime_error("write to daemon failed");
  }
}

/// Reads whatever is available into d.inbuf; false on EOF or error.
bool read_some(Daemon& d) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = read(d.from_fd, buf, sizeof buf);
    if (got > 0) {
      d.inbuf.append(buf, static_cast<std::size_t>(got));
      return true;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
}

std::string read_line(Daemon& d) {
  for (;;) {
    const std::size_t nl = d.inbuf.find('\n');
    if (nl != std::string::npos) {
      std::string line = d.inbuf.substr(0, nl);
      d.inbuf.erase(0, nl + 1);
      return line;
    }
    pollfd p{d.from_fd, POLLIN, 0};
    if (poll(&p, 1, kPollTimeoutMs) <= 0 || !read_some(d))
      throw std::runtime_error("daemon closed its output");
  }
}

/// Spawns a daemon and waits until it answers a stats request.
Daemon start_ready_daemon(const Options& options, int jobs) {
  Daemon d = spawn_daemon(options.serve_bin, jobs);
  try {
    write_all(d, "{\"op\":\"stats\",\"id\":\"ready\"}\n");
    read_line(d);
  } catch (...) {
    stop_daemon(d);
    throw;
  }
  return d;
}

struct PassResult {
  std::vector<std::string> lines;
  std::vector<std::int64_t> sent_ns, recv_ns;
  std::int64_t start_ns = 0, end_ns = 0;
  Json stats;
};

/// Sends `sequence` in rounds of kWindow requests, each round written at
/// once and answered in full before the next (a closed loop with kWindow
/// requests in flight). Writing a round at once lets the daemon batch it
/// whole, so batches, and the latency of each request, do not depend on
/// timing. Response lines are kept; parsing waits until the pass is over.
PassResult run_pass(Daemon& d, const std::vector<Key>& universe,
                    const std::vector<std::size_t>& sequence) {
  const std::size_t n = sequence.size();
  PassResult r;
  r.lines.resize(n);
  r.sent_ns.resize(n);
  r.recv_ns.resize(n);
  std::size_t sent = 0, received = 0;
  r.start_ns = now_ns();
  while (received < n) {
    if (received == sent) {
      std::string round;
      const std::size_t end = std::min(n, sent + kWindow);
      for (std::size_t i = sent; i < end; ++i)
        round += "{\"id\":" + std::to_string(i) + "," +
                 universe[sequence[i]].body + "}\n";
      const std::int64_t t = now_ns();
      for (; sent < end; ++sent) r.sent_ns[sent] = t;
      write_all(d, round);
    }
    pollfd p{d.from_fd, POLLIN, 0};
    const int ready = poll(&p, 1, kPollTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0 || !read_some(d))
      throw std::runtime_error("daemon did not answer within 60 s");
    const std::int64_t t = now_ns();
    std::size_t pos = 0;
    for (std::size_t nl = d.inbuf.find('\n', pos);
         received < sent && nl != std::string::npos;
         pos = nl + 1, nl = d.inbuf.find('\n', pos)) {
      r.lines[received].assign(d.inbuf, pos, nl - pos);
      r.recv_ns[received++] = t;
    }
    d.inbuf.erase(0, pos);
  }
  r.end_ns = now_ns();
  write_all(d, "{\"op\":\"stats\",\"id\":\"stats\"}\n");
  r.stats = Json::parse(read_line(d));
  return r;
}

/// The value at `path` inside nested objects, or nullptr.
const Json* find(const Json& j, std::initializer_list<const char*> path) {
  const Json* cur = &j;
  for (const char* key : path)
    if (cur != nullptr) cur = cur->get(key);
  return cur;
}

std::int64_t int_at(const Json& j, std::initializer_list<const char*> path) {
  const Json* v = find(j, path);
  return v != nullptr && v->is_int() ? v->as_int() : 0;
}

double real_at(const Json& j, std::initializer_list<const char*> path) {
  const Json* v = find(j, path);
  return v != nullptr && v->is_number() ? v->as_real() : 0.0;
}

bool str_is(const Json& j, std::initializer_list<const char*> path,
            const char* want) {
  const Json* v = find(j, path);
  return v != nullptr && v->is_str() && v->as_str() == want;
}

}  // namespace

void run_serve_mix(const Options& options, Tracer& tracer, Outcome& out) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int jobs = std::clamp(nproc, 1, 4);
  const std::vector<Key> universe = build_universe(options.seed);

  // The request sequence is the same for every seed: Zipf ranks drawn from
  // a fixed generator, mapped to key slots through a fixed shuffle (so the
  // hot keys are not simply the first-built ones). The seed draws the
  // graphs behind the keys. Batching makes a request's latency depend on
  // what shares its batch; with a per-seed order the miss latencies moved
  // by a third between seeds, with a fixed order only the graphs differ.
  Rng rng(kSequenceSeed);
  std::vector<std::size_t> rank_to_key(universe.size());
  for (std::size_t i = 0; i < rank_to_key.size(); ++i) rank_to_key[i] = i;
  rng.shuffle(rank_to_key);
  const ZipfSampler zipf(universe.size(), kTheta);
  std::vector<std::size_t> sequence(kRequestsPerPass);
  for (auto& s : sequence) s = rank_to_key[zipf.draw(rng)];

  // Set-up: start the daemon and wait until it answers; repeated so that
  // setup_s is a median (every pass below starts one more).
  std::vector<double> setup_s;
  const auto timed_start = [&](int op) {
    tracer.set_op(op);
    const int span = tracer.begin("setup");
    const std::int64_t t0 = now_ns();
    Daemon d = start_ready_daemon(options, jobs);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    tracer.end(span);
    return d;
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    Daemon d = timed_start(-1 - i);
    stop_daemon(d);
  }

  std::vector<double> latency_ms, miss_ms, hit_ms, queue_ms, solve_ms;
  std::vector<double> pass_rps;
  std::int64_t report_hits = 0, graph_hits = 0;
  std::vector<double> evictions, batch_mean;
  std::map<std::size_t, std::string> first_report;  // key index -> bytes
  std::int64_t first_solves = -1;

  const std::int64_t start = now_ns();
  const auto time_left = [&] {
    return now_ns() - start < static_cast<std::int64_t>(options.seconds * 1e9);
  };
  for (int pass = 0; pass == 0 || time_left(); ++pass) {
    Daemon d = timed_start(-1 - kSetupRepeats - pass);
    tracer.set_op(pass);
    PassResult r;
    const int pass_span = tracer.begin("serve.pass");
    try {
      r = run_pass(d, universe, sequence);
      tracer.end(pass_span);
    } catch (const std::exception& e) {
      tracer.end(pass_span);
      stop_daemon(d);
      out.attempted += static_cast<std::int64_t>(sequence.size());
      out.fail("pass " + std::to_string(pass) + ": " + e.what());
      break;
    }
    stop_daemon(d);
    const double wall_s = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    out.op_seconds.push_back(wall_s);
    pass_rps.push_back(static_cast<double>(sequence.size()) / wall_s);

    for (std::size_t i = 0; i < sequence.size(); ++i) {
      ++out.attempted;
      const double ms = ms_between(r.sent_ns[i], r.recv_ns[i]);
      latency_ms.push_back(ms);
      const std::string where = "request " + std::to_string(i) + ": ";
      try {
        const Json env = Json::parse(r.lines[i]);
        const Json* ok = env.get("ok");
        const Json* id = env.get("id");
        const Json* report = env.get("report");
        if (ok == nullptr || !ok->is_bool() || !ok->as_bool() ||
            report == nullptr || id == nullptr || !id->is_int() ||
            id->as_int() != static_cast<std::int64_t>(i)) {
          out.fail(where + r.lines[i].substr(0, 200));
          continue;
        }
        const bool hit = str_is(env, {"cache", "report"}, "hit");
        if (hit) {
          ++report_hits;
          hit_ms.push_back(ms);
        } else {
          miss_ms.push_back(ms);
          solve_ms.push_back(real_at(env, {"telemetry", "solve_ms"}));
        }
        if (str_is(env, {"cache", "graph"}, "hit")) ++graph_hits;
        queue_ms.push_back(real_at(env, {"telemetry", "queue_ms"}));
        Json args = Json::object();
        args.set("request", Json::integer(static_cast<std::int64_t>(i)));
        args.set("report_cache", Json::str(hit ? "hit" : "miss"));
        tracer.add(pass_span, "serve.request", r.sent_ns[i], r.recv_ns[i],
                   /*tid=*/1, std::move(args));
        // The envelope splices the report last and verbatim, so the line
        // must end with the report's canonical bytes.
        std::string bytes = report->dump();
        const std::string& line = r.lines[i];
        if (line.size() < bytes.size() + 1 ||
            line.compare(line.size() - bytes.size() - 1, bytes.size(),
                         bytes) != 0) {
          out.fail(where + "report is not spliced verbatim");
          continue;
        }
        const auto [it, first] = first_report.emplace(sequence[i], bytes);
        if (!first && it->second != bytes)
          out.fail(where + "differs from the key's first response");
      } catch (const std::exception& e) {
        out.fail(where + e.what());
      }
    }
    const std::int64_t solves = int_at(r.stats, {"stats", "server", "solves"});
    if (first_solves < 0)
      first_solves = solves;
    else if (solves != first_solves)
      out.fail("serve.solves changed between passes");
    evictions.push_back(static_cast<double>(
        int_at(r.stats, {"stats", "graphs", "evictions"})));
    const std::int64_t batches =
        int_at(r.stats, {"stats", "server", "batches"});
    if (batches > 0)
      batch_mean.push_back(static_cast<double>(sequence.size()) /
                           static_cast<double>(batches));
  }

  // Oracle: every distinct response against the library's one-shot path,
  // the same bytes `scol-cli --no-timing` prints for that request.
  std::vector<std::pair<std::size_t, const std::string*>> distinct;
  for (const auto& [key, bytes] : first_report)
    distinct.emplace_back(key, &bytes);
  std::vector<std::string> verdicts(distinct.size());
  std::atomic<std::size_t> next{0};
  const auto check = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < distinct.size();) {
      const Key& key = universe[distinct[i].first];
      try {
        const ServeRequest req = parse_request("{" + key.body + "}");
        if (one_shot_report(req.spec).dump() != *distinct[i].second)
          verdicts[i] = "differs from one_shot_report: " + key.body;
      } catch (const std::exception& e) {
        verdicts[i] = "oracle failed for " + key.body + ": " + e.what();
      }
    }
  };
  {
    std::vector<std::thread> workers;
    for (int t = 1; t < jobs; ++t) workers.emplace_back(check);
    check();
    for (auto& w : workers) w.join();
  }

  std::int64_t colors = 0, rounds = 0, emit_bytes = 0;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    if (!verdicts[i].empty()) {
      out.fail(verdicts[i]);
      continue;
    }
    const Key& key = universe[distinct[i].first];
    const Json rep = Json::parse(*distinct[i].second);
    if (!str_is(rep, {"status"}, "colored")) {
      out.fail("not colored: " + key.body);
      continue;
    }
    const std::int64_t used = int_at(rep, {"colors_used"});
    if (key.paper_bound >= 0 && used > key.paper_bound)
      out.fail(key.body + ": " + std::to_string(used) +
               " colors, paper bound " + std::to_string(key.paper_bound));
    colors += used;
    rounds += int_at(rep, {"rounds"});
    emit_bytes += static_cast<std::int64_t>(distinct[i].second->size());
  }
  const auto count = [](std::size_t v) { return static_cast<std::int64_t>(v); };
  out.counts = {{"colors_used", colors},
                {"local_rounds", rounds},
                {"emit.bytes", emit_bytes},
                {"serve.distinct_keys", count(distinct.size())},
                {"serve.solves", first_solves}};
  out.instance.set("requests_per_pass", Json::integer(count(kRequestsPerPass)));
  out.instance.set("keys", Json::integer(count(universe.size())));
  out.instance.set("distinct_keys", Json::integer(count(distinct.size())));
  out.instance.set("daemon_jobs", Json::integer(jobs));
  out.instance.set("window", Json::integer(count(kWindow)));

  out.end_to_end = {
      {"setup_s", median(setup_s)},
      {"op_s", median(out.op_seconds)},
      {"peak_rss_mb", peak_rss_mb(true)},
      {"colors_used", static_cast<double>(colors)},
      {"local_rounds", static_cast<double>(rounds)},
      {"serve_rps", median(pass_rps)},
      {"serve_p50_ms", percentile(latency_ms, 0.5)},
      {"serve_p99_ms", percentile(latency_ms, 0.99)},
      {"serve_miss_p50_ms", percentile(miss_ms, 0.5)},
  };
  if (!tracer.enabled()) return;
  const double n =
      static_cast<double>(std::max<std::size_t>(latency_ms.size(), 1));
  out.per_layer = {
      {"serve.report_hit_ratio", static_cast<double>(report_hits) / n},
      {"serve.graph_hit_ratio", static_cast<double>(graph_hits) / n},
      {"serve.graph_evictions", median(evictions)},
      {"serve.solves", static_cast<double>(first_solves)},
      {"serve.batch_mean", median(batch_mean)},
      {"serve.queue_ms_p50", percentile(queue_ms, 0.5)},
      {"serve.solve_ms_p50", percentile(solve_ms, 0.5)},
      {"serve.hit_p50_ms", percentile(hit_ms, 0.5)},
      {"emit.bytes", static_cast<double>(emit_bytes)},
  };
}

}  // namespace e2e
