// Ball-collection oracle.
//
// In the LOCAL model, learning the labelled ball B_r(v) takes exactly r
// rounds (flood your current knowledge every round). The oracle computes
// balls centrally by BFS — the semantics are identical (tests compare it
// against the engine-based flooding program) — and charges r rounds once
// per *parallel* collection: all nodes collect their balls simultaneously,
// so one collection costs r rounds regardless of n.
#pragma once

#include <vector>

#include "scol/graph/graph.h"
#include "scol/local/ledger.h"
#include "scol/util/executor.h"

namespace scol {

/// Engine-based reference implementation (tests): after `radius` rounds of
/// flooding, node v knows exactly the vertex set of B_radius(v).
std::vector<std::vector<Vertex>> flood_balls_engine(
    const Graph& g, int radius, RoundLedger* ledger,
    const Executor* executor = nullptr);

}  // namespace scol
