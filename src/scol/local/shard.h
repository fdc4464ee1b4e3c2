// Partitioned execution: CSR shards + a counted boundary exchange.
//
// The paper's algorithms are stated in the LOCAL model — p machines, each
// owning a set of vertices, exchanging boundary colors between synchronous
// rounds. ShardPlan partitions the CSR into p contiguous vertex ranges
// (reusing the monotone degree order the counting-sort builder already
// guarantees) and counts, over every ordered shard pair (s, t), the
// s-owned vertices with at least one neighbor in t — exactly the
// per-round update set a real network backend would transmit.
//
// ShardedExecutor implements the Executor seam on top of a plan and one
// ThreadPoolExecutor (p threads when `threaded`, else 1, which starts no
// thread). It drives a loop in one of two modes:
//   - A parallel_ranges() call whose width equals the graph's vertex count
//     is one BSP superstep: the plan's p shard ranges run as the pool's p
//     chunks, then the superstep counter advances. Every superstep
//     delivers the same plan-fixed update set, so the exchange is counted,
//     not simulated: stats() derives messages = supersteps ×
//     boundary_pairs.
//   - A narrower loop (palette scan, reduction, ball-sized sub-solve)
//     carries no exchange and is the pool's own parallel_ranges: one rule
//     for narrow loops everywhere, under which a loop below kDefaultGrain
//     runs inline as the single range (0, n) on the caller.
// Because the shard ranges are disjoint and exactly cover [0, n), results
// are bit-identical to SerialExecutor — the golden corpus pins this for
// p ∈ {1, 2, 4, 8}.
//
// solve() snapshots the counters around a run and surfaces per-run deltas
// in the report metrics bag when `ShardOptions::metrics` is on. With
// metrics off the executor is observationally identical to serial — that
// is what the byte-compare CI legs and the golden sharded sweep run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/util/executor.h"

namespace scol {

struct ShardOptions {
  int shards = 1;          ///< p >= 1
  bool threaded = false;   ///< run shards on a p-thread pool
  bool metrics = true;     ///< surface exchange telemetry in reports
};

/// A contiguous range partition of [0, num_vertices) into p shards, each
/// holding an equal share of sum(degree(v) + 1), plus the size of the
/// boundary the per-round exchange carries. Deterministic: depends only on
/// the graph and options, never on scheduling.
struct ShardPlan {
  static ShardPlan build(const Graph& g, const ShardOptions& options);

  int shards = 1;
  std::size_t num_vertices = 0;
  /// shards + 1 monotone cut points; shard s owns [cuts[s], cuts[s+1]).
  std::vector<std::int64_t> cuts;
  std::int64_t cut_edges = 0;          ///< undirected edges crossing shards
  std::int64_t boundary_vertices = 0;  ///< vertices with any cross neighbor
  /// Ordered pairs (v, t) with v owned by s != t and >= 1 neighbor of v
  /// owned by t: the updates one superstep delivers.
  std::int64_t boundary_pairs = 0;

  /// Owning shard of v (cuts binary search).
  int owner(Vertex v) const;
  std::size_t shard_begin(int s) const { return static_cast<std::size_t>(cuts[s]); }
  std::size_t shard_end(int s) const { return static_cast<std::size_t>(cuts[s + 1]); }
};

/// Cumulative exchange counters (monotone over the executor's lifetime;
/// solve() reports per-run deltas).
struct ExchangeStats {
  std::int64_t rounds = 0;    ///< BSP supersteps driven
  std::int64_t messages = 0;  ///< per-vertex boundary updates delivered
  std::int64_t bytes = 0;     ///< messages * (sizeof(Vertex) + sizeof color)
};

/// Executor that drives LOCAL rounds across p CSR shards and counts their
/// boundary exchange. Not safe for concurrent parallel_ranges() calls
/// (same contract as ThreadPoolExecutor); campaign builds one per instance.
class ShardedExecutor final : public Executor {
 public:
  /// A wire update is (vertex id, color) — 8 bytes.
  static constexpr std::int64_t kBytesPerUpdate =
      sizeof(Vertex) + sizeof(std::int32_t);

  ShardedExecutor(const Graph& g, const ShardOptions& options);

  void parallel_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body) const override;

  const ShardPlan& plan() const { return plan_; }
  bool metrics_enabled() const { return options_.metrics; }

  /// Snapshot of the cumulative counters (thread-safe).
  ExchangeStats stats() const;

 private:
  ShardOptions options_;
  ShardPlan plan_;
  ThreadPoolExecutor pool_;
  mutable std::atomic<std::int64_t> supersteps_{0};
};

}  // namespace scol
