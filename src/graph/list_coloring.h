// Algorithm 3: largest-first greedy list coloring.
//
// Vertices are processed in non-increasing degree order; each takes the
// first candidate color that is not forbidden by an incident edge whose other
// vertices share a color. Vertices with an exhausted candidate list are
// skipped and returned to the caller (Algorithm 4 colors them with fresh
// colors, which corresponds to inserting new tuples into R2).
//
// Forbidden colors are tracked with an epoch-stamped mark vector keyed by
// candidate index (no per-vertex set rebuild). Two paths produce identical
// colorings:
//
//  * Generic (reference): one AppendForbiddenColors call per vertex —
//    O(sum of degrees) color pushes plus candidate lookups.
//  * Structure fast path: when the oracle publishes its layer decomposition
//    (ConflictStructure), the implicit-biclique layer is served by an
//    incremental group-color index — count[group][candidate] of colored
//    vertices inside each group's neighborhood, updated in O(#groups)
//    signature tests per assignment (no bitset reads) and queried in
//    O(#candidates) per vertex. A dense implicit partition (owner-owner
//    cliques) thus costs O(n · (G + C)) instead of O(n² ) color pushes. The
//    CSR layer streams each vertex's materialized neighbor run; the
//    hypergraph layer keeps its all-others-same-color rule.
//
// Candidate values map to dense mark slots through a sorted flat array
// (binary search) instead of a hash table; duplicate candidate values share
// the slot of their first occurrence. Oracles may report the same forbidden
// color several times — the epoch marks absorb duplicates, and the degree
// order only relies on the oracle's union simple-graph degrees, so colorings
// are identical across conflict representations, paths, and thread counts.

#ifndef CEXTEND_GRAPH_LIST_COLORING_H_
#define CEXTEND_GRAPH_LIST_COLORING_H_

#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"

namespace cextend {

/// Sentinel for "no color assigned".
inline constexpr int64_t kNoColor = INT64_MIN;

struct ListColoringResult {
  /// Per-vertex color (kNoColor where uncolored). Same length as the oracle's
  /// vertex count; carries over the colors passed in `initial`.
  std::vector<int64_t> colors;
  /// Vertices left uncolored because every candidate was forbidden.
  std::vector<int> skipped;
};

/// Runs ColoringLF(G, c, L). `initial` may be empty (all uncolored) or one
/// entry per vertex. `candidates` is the ordered list L; "smallest available
/// color" = first non-forbidden entry. Already-colored vertices are skipped,
/// matching the resumable use in Algorithm 4. The structure fast path runs
/// whenever `oracle.Structure()` is decomposed; results are identical either
/// way.
ListColoringResult GreedyListColoring(const ConflictOracle& oracle,
                                      std::vector<int64_t> initial,
                                      const std::vector<int64_t>& candidates);

}  // namespace cextend

#endif  // CEXTEND_GRAPH_LIST_COLORING_H_
