// Randomized distributed list-coloring (paper §6, Question 6.2 remark).
//
// The paper notes that the simple randomized (Δ+1)-coloring algorithm
// (see [5]) adapts to the list setting: every uncolored vertex proposes a
// uniformly random color from its list minus its colored neighbors'
// colors; a proposal is kept iff no neighbor proposed the same color in
// the same round. With |L(v)| >= deg(v)+1 each vertex survives a round
// with probability >= 1/4, so all vertices finish in O(log n) rounds
// w.h.p. — an exponential round gap versus the deterministic lower bounds
// of §2, which this library measures (bench_ablation).
//
// propose_resolve_coloring below owns the one propose/resolve loop in the
// library: randomized_list_coloring runs it on (deg+1)-lists, and the
// palette-sparsified `dplus1-sparsified` wrapper (api/solve.cpp) runs it
// on sampled lists (coloring/sparsify.h).
#pragma once

#include <cstdint>
#include <optional>

#include "scol/api/report.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/local/ledger.h"
#include "scol/util/executor.h"
#include "scol/util/rng.h"

namespace scol {

/// The propose/resolve kernel on arbitrary canonical lists. Each
/// iteration (2 LOCAL rounds) every uncolored vertex proposes a uniform
/// free list color from its Rng::stream(base_seed, iteration << 32 | v),
/// and keeps it iff no neighbor proposed the same color; "all colored"
/// is tested before each iteration, so an empty graph takes none.
/// Returns nullopt when some vertex has no free list color (short,
/// e.g. sampled, lists), when an iteration that colors nothing leaves
/// every free color of every uncolored vertex the only free color of an
/// uncolored neighbor (every later proposal would clash), or after
/// `max_rounds` iterations without finishing. `iterations` (when
/// non-null) always receives the count run. Bit-identical under every
/// executor.
std::optional<Coloring> propose_resolve_coloring(
    const Graph& g, const ListAssignment& lists, std::uint64_t base_seed,
    const Executor* executor, int max_rounds, std::int64_t* iterations);

/// Randomized (deg+1)-list-coloring: requires |L(v)| >= deg(v)+1 for all
/// v. Each propose/resolve iteration costs 2 LOCAL rounds (charged to the
/// report ledger as "randomized-coloring"; the iteration count is in
/// metrics "iterations"). Throws InternalError if not done after
/// max_rounds iterations (probability ~ n^-c). The kernel's base seed is
/// one value of `rng`, so the report is a deterministic function of the
/// seed and identical under every executor.
ColoringReport randomized_list_coloring(const Graph& g,
                                        const ListAssignment& lists, Rng& rng,
                                        RoundLedger* ledger = nullptr,
                                        const Executor* executor = nullptr,
                                        int max_rounds = 40'000);

}  // namespace scol
