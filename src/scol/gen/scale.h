// Web-scale synthetic generators (all deterministic given an Rng seed):
// Graph500-style RMAT, power-law (Chung–Lu) graphs, and preferential
// attachment. These produce the skewed-degree sparse regimes the related
// distributed-coloring results target (Ghaffari–Lymouri arXiv:1708.06275,
// palette sparsification arXiv:2408.08256) at sizes the chunked file
// reader and the sampled probes are built for.
#pragma once

#include "scol/graph/graph.h"
#include "scol/util/rng.h"

namespace scol {

/// Graph500-style RMAT graph: n = 2^scale vertices, `edgefactor * n`
/// edge attempts drawn by recursive quadrant descent with probabilities
/// (a, b, c, d = 1 - a - b - c). Self-loops are dropped and duplicate
/// attempts merged, so num_edges() <= edgefactor * n (the attempt count
/// is exact; the merged count is a deterministic function of the seed).
/// Requires 0 <= scale <= 30, edgefactor >= 0, probabilities
/// non-negative with a + b + c <= 1.
Graph rmat(Vertex scale, std::int64_t edgefactor, double a, double b,
           double c, Rng& rng);

/// Power-law (Chung–Lu style) graph with EXACTLY m distinct edges:
/// endpoints are drawn independently with weight(v) proportional to
/// (v + 1)^(-alpha / (alpha - 1))-ish expected-degree weights w_v =
/// (n / (v + 1))^(1 / (alpha - 1)), giving a degree tail P[deg >= d] ~
/// d^(1 - alpha). Attempts that repeat an edge or form a self-loop are
/// rejected until m distinct edges exist. Requires alpha > 1 and m no
/// larger than n*(n-1)/2; throws PreconditionError when the rejection
/// budget is exhausted (m too close to dense for the weight skew).
Graph powerlaw(Vertex n, std::int64_t m, double alpha, Rng& rng);

/// Preferential attachment (Barabási–Albert): vertices 0..k-1 start as a
/// clique; each later vertex attaches to k DISTINCT existing vertices
/// chosen proportionally to their current degree. Exactly
/// k*(k-1)/2 + (n-k)*k edges. Requires 1 <= k < n.
Graph pref_attach(Vertex n, Vertex k, Rng& rng);

}  // namespace scol
