#include "scol/coloring/randomized.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "scol/util/executor.h"

namespace scol {

std::optional<Coloring> propose_resolve_coloring(
    const Graph& g, const ListAssignment& lists, std::uint64_t base_seed,
    const Executor* executor, int max_rounds, std::int64_t* iterations) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(lists.size() == n);
  SCOL_REQUIRE(lists.canonical(), + "lists must be sorted unique");
  const Executor& exec = resolve_executor(executor);

  Coloring coloring = empty_coloring(n);
  std::int64_t iters = 0;
  std::atomic<std::int64_t> colored{0};
  // Whether ANY vertex is stuck this round is order-independent, so the
  // abandon decision is deterministic under every executor.
  std::atomic<bool> stuck{false};
  std::vector<Color> proposal(static_cast<std::size_t>(n), kUncolored);
  // L(v) minus the colors of v's colored neighbors, in list order.
  const auto free_colors = [&](Vertex v) {
    std::set<Color> blocked;
    for (Vertex w : g.neighbors(v)) {
      const Color cw = coloring[static_cast<std::size_t>(w)];
      if (cw != kUncolored) blocked.insert(cw);
    }
    std::vector<Color> free;
    for (Color c : lists.of(v))
      if (!blocked.count(c)) free.push_back(c);
    return free;
  };
  // Whether every free color of every uncolored vertex is the only free
  // color of some uncolored neighbor. Such a neighbor proposes that color
  // every iteration, so every proposal clashes from here on. With
  // (deg+1)-lists it never holds: v has more free colors than uncolored
  // neighbors. Serial, so it adds no superstep to a sharded run.
  const auto deadlocked = [&] {
    std::vector<Color> forced(static_cast<std::size_t>(n), kUncolored);
    for (Vertex v = 0; v < n; ++v) {
      if (coloring[static_cast<std::size_t>(v)] != kUncolored) continue;
      const std::vector<Color> free = free_colors(v);
      if (free.size() == 1) forced[static_cast<std::size_t>(v)] = free[0];
    }
    for (Vertex v = 0; v < n; ++v) {
      if (coloring[static_cast<std::size_t>(v)] != kUncolored) continue;
      for (Color c : free_colors(v)) {
        const auto nb = g.neighbors(v);
        if (std::none_of(nb.begin(), nb.end(), [&](Vertex w) {
              return forced[static_cast<std::size_t>(w)] == c;
            }))
          return false;
      }
    }
    return true;
  };

  while (colored.load(std::memory_order_relaxed) < n && iters < max_rounds &&
         !stuck.load(std::memory_order_relaxed)) {
    const std::uint64_t round_tag = static_cast<std::uint64_t>(iters) << 32;
    const std::int64_t colored_before = colored.load(std::memory_order_relaxed);
    // Propose: a uniform color from L(v) minus colored neighbors. A list
    // with no free color is flagged instead of crashing: on short
    // (sampled) lists that abandons the attempt.
    parallel_for_index(exec, static_cast<std::size_t>(n), [&](std::size_t i) {
      const Vertex v = static_cast<Vertex>(i);
      proposal[i] = kUncolored;
      if (coloring[i] != kUncolored) return;
      const std::vector<Color> free = free_colors(v);
      if (free.empty()) {
        stuck.store(true, std::memory_order_relaxed);
        return;
      }
      Rng vr =
          Rng::stream(base_seed, round_tag | static_cast<std::uint64_t>(v));
      proposal[i] = free[vr.below(free.size())];
    });
    // Resolve: keep the proposal iff no neighbor proposed the same color.
    exec.parallel_ranges(
        static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
          std::int64_t local = 0;
          for (std::size_t i = begin; i < end; ++i) {
            const Color mine = proposal[i];
            if (mine == kUncolored) continue;
            bool clash = false;
            for (Vertex w : g.neighbors(static_cast<Vertex>(i))) {
              if (proposal[static_cast<std::size_t>(w)] == mine) {
                clash = true;
                break;
              }
            }
            if (!clash) {
              coloring[i] = mine;
              ++local;
            }
          }
          if (local > 0) colored.fetch_add(local, std::memory_order_relaxed);
        });
    ++iters;
    if (colored.load(std::memory_order_relaxed) == colored_before &&
        deadlocked())
      break;
  }

  if (iterations != nullptr) *iterations = iters;
  if (colored.load(std::memory_order_relaxed) < n ||
      stuck.load(std::memory_order_relaxed))
    return std::nullopt;
  return coloring;
}

ColoringReport randomized_list_coloring(const Graph& g,
                                        const ListAssignment& lists, Rng& rng,
                                        RoundLedger* ledger,
                                        const Executor* executor,
                                        int max_rounds) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(lists.size() == n);
  for (Vertex v = 0; v < n; ++v)
    SCOL_REQUIRE(static_cast<Vertex>(lists.of(v).size()) >= g.degree(v) + 1,
                 + "randomized list coloring needs (deg+1)-lists");

  // One base seed drawn from the caller's generator; every (vertex, round)
  // pair then gets its own decorrelated stream, so the draws do not depend
  // on vertex visitation order and parallel runs match serial runs bit for
  // bit (and the result is a deterministic function of the caller's seed).
  std::int64_t iterations = 0;
  std::optional<Coloring> coloring = propose_resolve_coloring(
      g, lists, rng.next(), executor, max_rounds, &iterations);
  // (deg+1)-lists always leave a free color, so only the cap can fail.
  SCOL_CHECK(coloring.has_value(),
             + "randomized coloring did not converge (astronomically "
               "unlikely)");

  ColoringReport out = ColoringReport::colored(std::move(*coloring));
  out.ledger.charge("randomized-coloring", 2 * iterations);
  out.metrics.set_int("iterations", iterations);
  out.sync_derived_fields();
  if (ledger != nullptr) ledger->merge(out.ledger);
  return out;
}

}  // namespace scol
