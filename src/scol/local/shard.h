// Partitioned execution: CSR shards + counted message channels.
//
// The paper's algorithms are stated in the LOCAL model — p machines, each
// owning a set of vertices, exchanging boundary colors between synchronous
// rounds. ShardPlan partitions the CSR into p contiguous vertex ranges
// (reusing the monotone degree order the counting-sort builder already
// guarantees) and precomputes, per ordered shard pair (s, t), the sorted
// list of s-owned vertices with at least one neighbor in t — exactly the
// per-round update set a real network backend would transmit.
//
// ShardedExecutor implements the Executor seam on top of a plan: a
// parallel_ranges() call whose width equals the graph's vertex count is one
// BSP superstep — each shard runs the body over its own range (with its own
// Arena for message payloads), then posts one message per neighboring shard
// into a mutex-guarded ShardChannel, then every shard drains its inbox and
// verifies the counted exchange. Narrower loops (palette scans, reductions,
// ball-sized sub-solves) carry no exchange accounting: below kDefaultGrain
// they run inline as one range, wider ones as plain disjoint chunks. Because
// the shard ranges are disjoint and exactly cover [0, n), results are
// bit-identical to SerialExecutor — the golden corpus pins this for
// p ∈ {1, 2, 4, 8}.
//
// Telemetry (messages sent, bytes exchanged, supersteps) accumulates in the
// executor; solve() snapshots it around a run and surfaces per-run deltas in
// the report metrics bag when `ShardOptions::metrics` is on. With metrics
// off the executor is observationally identical to serial — that is what
// the byte-compare CI legs and the golden sharded sweep run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/util/arena.h"
#include "scol/util/executor.h"
#include "scol/util/thread_pool.h"

namespace scol {

/// How ShardPlan places the p-1 internal cut points.
enum class ShardPartition {
  kRange,    ///< balance sum(degree(v) + 1) per shard (CSR adjacency share)
  kEdgeCut,  ///< kRange start, then local search each cut to reduce cut edges
};

struct ShardOptions {
  int shards = 1;                                  ///< p >= 1
  ShardPartition partition = ShardPartition::kRange;
  bool threaded = false;  ///< run shards on an owned p-thread pool
  bool metrics = true;    ///< surface exchange telemetry in reports
  /// Half-width of the kEdgeCut local-search window around each range cut.
  std::size_t edge_cut_window = 64;
};

/// A contiguous range partition of [0, num_vertices) into p shards, plus
/// the boundary structure the per-round exchange needs. Deterministic:
/// depends only on the graph and options, never on scheduling.
struct ShardPlan {
  static ShardPlan build(const Graph& g, const ShardOptions& options);

  int shards = 1;
  std::size_t num_vertices = 0;
  /// shards + 1 monotone cut points; shard s owns [cuts[s], cuts[s+1]).
  std::vector<std::int64_t> cuts;
  /// boundary[s * shards + t]: sorted vertices owned by s with >= 1
  /// neighbor owned by t (s != t). These are the per-round messages s -> t.
  std::vector<std::vector<Vertex>> boundary;
  std::int64_t cut_edges = 0;          ///< undirected edges crossing shards
  std::int64_t boundary_vertices = 0;  ///< vertices with any cross neighbor
  std::int64_t boundary_pairs = 0;     ///< sum of all boundary list sizes

  /// Owning shard of v (cuts binary search).
  int owner(Vertex v) const;
  std::size_t shard_begin(int s) const { return static_cast<std::size_t>(cuts[s]); }
  std::size_t shard_end(int s) const { return static_cast<std::size_t>(cuts[s + 1]); }
};

/// One boundary-update batch: `payload` lists the sender-owned vertices
/// whose fresh round state the receiver reads next superstep. The span
/// points into the sender's shard arena and is valid until the sender's
/// next superstep begins.
struct ShardMessage {
  std::int64_t round = 0;
  int from = 0;
  std::span<const Vertex> payload;
};

/// Mutex-guarded single-consumer inbox; one per destination shard. push()
/// may be called concurrently by every other shard; drain() is called by
/// the owner between the post and read phases of a superstep.
class ShardChannel {
 public:
  void push(ShardMessage m) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(m);
  }
  std::vector<ShardMessage> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ShardMessage> out;
    out.swap(queue_);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<ShardMessage> queue_;
};

/// Cumulative exchange counters (monotone over the executor's lifetime;
/// solve() reports per-run deltas).
struct ExchangeStats {
  std::int64_t rounds = 0;    ///< BSP supersteps driven
  std::int64_t messages = 0;  ///< per-vertex boundary updates delivered
  std::int64_t bytes = 0;     ///< messages * (sizeof(Vertex) + sizeof color)
};

/// Executor that drives LOCAL rounds across p CSR shards with explicit
/// boundary exchange. Not safe for concurrent parallel_ranges() calls
/// (same contract as ThreadPoolExecutor); campaign builds one per instance.
class ShardedExecutor final : public Executor {
 public:
  /// A wire update is (vertex id, color) — 8 bytes.
  static constexpr std::int64_t kBytesPerUpdate =
      sizeof(Vertex) + sizeof(std::int32_t);

  ShardedExecutor(const Graph& g, const ShardOptions& options);
  ~ShardedExecutor() override;

  int concurrency() const override;
  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override;

  const ShardPlan& plan() const { return plan_; }
  bool metrics_enabled() const { return options_.metrics; }

  /// Snapshot of the cumulative counters (thread-safe).
  ExchangeStats stats() const;
  /// Messages delivered in supersteps [first_round, first_round + limit),
  /// clipped to what actually ran. Used for the per-round report string.
  std::vector<std::int64_t> per_round_messages(std::int64_t first_round,
                                               std::size_t limit) const;

 private:
  void superstep(const std::function<void(std::size_t, std::size_t)>& body) const;
  void for_each_shard(const std::function<void(int)>& f) const;

  ShardOptions options_;
  ShardPlan plan_;
  mutable std::vector<std::unique_ptr<Arena>> arenas_;   // one per shard
  mutable std::vector<ShardChannel> channels_;           // one inbox per shard
  mutable std::unique_ptr<ThreadPool> pool_;             // threaded mode only
  mutable std::mutex stats_mu_;
  mutable ExchangeStats stats_;
  mutable std::vector<std::int64_t> per_round_;          // capped history
};

}  // namespace scol
