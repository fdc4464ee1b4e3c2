// Girth (length of a shortest cycle); returns -1 for forests ("infinite").
// Used by Proposition 2.2 / Corollary 4.2 experiments and generator tests.
#pragma once

#include "scol/graph/graph.h"

namespace scol {

/// Girth via BFS from every vertex. With `limit` < 0 (default): the
/// exact girth, O(n·m), -1 if acyclic. With `limit` >= 3: the exact
/// girth when it is <= limit, else -1 (certifying girth > limit) — the
/// BFS is truncated at depth ceil(limit/2), so the scan is
/// O(n · Δ^(limit/2)); the structure probe (io/probe.h) uses this form.
/// Each source costs only what its BFS reaches (the distance array is
/// reset per reached vertex, not cleared per source), and the scan stops
/// at the first triangle, since no simple graph has a shorter cycle.
Vertex girth(const Graph& g, Vertex limit = -1);

/// True iff no triangle exists (girth > 3 or acyclic).
bool triangle_free(const Graph& g);

}  // namespace scol
