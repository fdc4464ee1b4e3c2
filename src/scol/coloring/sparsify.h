// Palette sparsification (Flin–Ghaffari–Halldórsson–Kuhn–Nolin,
// arXiv:2301.06457; Dhawan, arXiv:2408.08256): sampling O(log n) colors
// per vertex from its list preserves list-colorability w.h.p., so a
// solver can run on lists a fraction of the size — less palette memory
// and less per-round forbidden-set work on exactly the dense instances
// where ListAssignment is fattest.
//
// This file is the deterministic half of that idea: a sampled
// sub-assignment that is a pure function of (lists, target, seed,
// attempt) — per-(vertex, attempt) Rng streams make the sample
// independent of vertex visitation order, executors, and shard layout.
// It owns no coloring loop: `dplus1-sparsified` colors each sample with
// propose_resolve_coloring (coloring/randomized.h), which abandons the
// attempt when a vertex runs out of free sampled colors. The registered
// `*-sparsified` wrappers (api/solve.cpp) retry a few independent samples
// and fall back to the full palette when every attempt fails, so the
// family keeps the underlying solvers' guarantees.
#pragma once

#include <cstdint>

#include "scol/coloring/types.h"
#include "scol/util/rng.h"

namespace scol {

/// Sampled list size for an n-vertex graph: ceil(c * log2(n + 1)),
/// at least 2 (a 1-color list can never survive a propose/resolve
/// clash, and the theorem's regime is c * log n >> 1 anyway) and at most
/// the largest Vertex, where every list is kept whole.
Vertex sparsify_target(Vertex n, double c);

/// Samples each vertex's list down to at most `target` colors. Vertices
/// whose list already fits are copied verbatim; larger lists get a
/// uniform `target`-subset via partial Fisher–Yates driven by the
/// Rng::stream keyed on (seed, attempt << 32 | v). Output lists are
/// subsets of the inputs (sorted and duplicate-free, like every list),
/// so any coloring found on the sample respects the original assignment.
ListAssignment sparsify_palette(const ListAssignment& lists, Vertex target,
                                std::uint64_t seed, std::uint64_t attempt);

}  // namespace scol
