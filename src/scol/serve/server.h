// The scol-serve engine: a long-lived coloring service over NDJSON.
//
// One Server owns the two caches (content-addressed graphs, verbatim
// reports) and an optional worker pool, and can serve any number of
// request streams — a stdin/stdout pipe, a stringstream in tests, or
// one TCP connection each (connections share the caches; that is the
// point of a daemon).
//
// Request flow per batch:
//
//   read lines until the input would block (or max_batch is reached)
//     → identity first: a generator spec the graph store has built has a
//       remembered (digest, max degree), which is all a canonical cache
//       key needs; report-cache hits answer here, touching no graph
//     → resolve the graphs of everything else on the pool (one
//       resolution per graph-store key, so every seed of a file is one;
//       cold graphs build in parallel),
//       then key and look up the requests that had no identity; hash
//       requests find their resident graph here
//     → group remaining requests by key (same graph+algo+seed+params
//       asked twice in one batch solves once)
//     → solve unique keys on the pool, one warm per-worker arena each
//     → emit responses in arrival order.
//
// Each request consults the report cache exactly once. An envelope's
// cache.graph verdict reads "miss" only for the first-arriving request
// that built its graph; a report hit answered from an identity reads
// "hit".
//
// Batching is opportunistic, not time-based: a lone request never waits
// for company (in_avail() == 0 flushes immediately), while a pipelined
// client that keeps the pipe full gets amortized into parallel batches.
// Reports are built by the same one_shot_report_on() path as scol-cli,
// with wall_ms zeroed — the envelope's telemetry block carries real
// latencies, so cached and fresh responses stay byte-identical in their
// "report" field.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "scol/api/json.h"
#include "scol/serve/cache.h"
#include "scol/serve/protocol.h"
#include "scol/util/executor.h"

namespace scol {

struct ServerOptions {
  int jobs = 1;                  ///< worker threads per batch (>= 1)
  std::size_t max_batch = 64;    ///< flush threshold (>= 1)
  std::size_t graph_cache_capacity = 64;     ///< 0 = unbounded
  std::size_t report_cache_capacity = 4096;  ///< 0 = unbounded
};

/// Server-wide monotonic counters (cache counters live on the caches).
struct ServerCounters {
  std::uint64_t requests = 0;  ///< lines parsed (any op, incl. errors)
  std::uint64_t solves = 0;    ///< unique-key solves actually run
  std::uint64_t errors = 0;    ///< error envelopes emitted
  std::uint64_t batches = 0;   ///< flushes with >= 1 solve request
  std::uint64_t max_batch = 0; ///< largest batch observed
};

class Server {
 public:
  explicit Server(const ServerOptions& options);

  /// Serves one NDJSON stream until EOF or a shutdown request. Returns
  /// true when the stream asked the whole server to shut down. Safe to
  /// call from several threads (one per connection); batches are
  /// serialized across streams because the worker pool is not reentrant.
  bool serve_stream(std::istream& in, std::ostream& out);

  /// TCP mode: binds 127.0.0.1:`port` (0 = kernel-assigned), reports the
  /// actual port through `on_listening`, then serves each connection on
  /// its own thread until a shutdown request. Returns 0 on clean
  /// shutdown, 1 on a socket-layer failure (message to stderr).
  int listen_and_serve(int port,
                       const std::function<void(int)>& on_listening = {});

  /// The /stats payload: cache and server counters plus configuration.
  Json stats_json() const;

 private:
  struct Pending;

  void flush(std::vector<Pending>& batch, std::ostream& out);
  std::shared_ptr<Arena> acquire_arena();
  void release_arena(std::shared_ptr<Arena> arena);

  const ServerOptions options_;
  GraphStore store_;
  ReportCache reports_;
  std::unique_ptr<ThreadPoolExecutor> pool_;  // null when jobs == 1

  std::mutex solve_mu_;  // one batch in flight across all streams

  std::mutex arena_mu_;  // free-list of warmed per-worker arenas
  std::vector<std::shared_ptr<Arena>> arenas_;

  mutable std::mutex stats_mu_;
  ServerCounters counters_;

  std::atomic<bool> shutting_down_{false};
  std::atomic<int> listen_fd_{-1};
};

}  // namespace scol
