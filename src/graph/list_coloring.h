// Algorithm 3: largest-first greedy list coloring.
//
// Vertices are processed in non-increasing degree order; each takes the
// first candidate color that is not forbidden by an incident edge whose other
// vertices share a color. Vertices with an exhausted candidate list are
// skipped and returned to the caller (Algorithm 4 colors them with fresh
// colors, which corresponds to inserting new tuples into R2).
//
// Forbidden colors are tracked per candidate slot. Three paths produce
// identical colorings:
//
//  * Generic (reference): one AppendForbiddenColors call per vertex —
//    O(sum of degrees) color pushes plus candidate lookups, epoch-stamped
//    into a mark vector.
//  * Quotient: when the oracle publishes a QuotientGraph
//    (ConflictStructure), every uncolored vertex of a bucket sees the same
//    forbidden set, and that set only grows. Each group and each bucket
//    keeps a forbidden bitset over candidate slots, updated in O(adjacent
//    classes) per assignment, and each bucket a cursor over the candidate
//    list that only moves past candidates its rows forbid. An owner clique
//    of n vertices thus costs O(n + C) instead of Θ(n²) color pushes and
//    O(C) scans per vertex.
//  * CSR rung: when (groups + buckets) · ⌈C/64⌉ words of rows would
//    outgrow 2n words (many buckets, long candidate lists), buckets keep no
//    rows and each vertex streams the colored members of its adjacent
//    buckets instead, as a per-vertex CSR graph would.
//
// Hyperedges forbid per vertex in every path (all-other-vertices-same-color
// rule); their marks never move a shared cursor. The largest-first order is
// an LSD radix sort over the oracle's degrees.
//
// Candidate values map to dense slots through a sorted flat array (binary
// search) instead of a hash table; duplicate candidate values share the slot
// of their first occurrence. Oracles may report the same forbidden color
// several times — the marks absorb duplicates, and the degree order only
// relies on the oracle's union simple-graph degrees, so colorings are
// identical across conflict representations, paths, and thread counts.

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
  /// The quotient was colored on the CSR rung (per-vertex neighbor streams),
  /// chosen because per-bucket bitsets would not have been smaller.
  bool csr_rung = false;
};

/// Runs ColoringLF(G, c, L). `initial` may be empty (all uncolored) or one
/// entry per vertex. `candidates` is the ordered list L; "smallest available
/// color" = first non-forbidden entry. Already-colored vertices are skipped,
/// matching the resumable use in Algorithm 4. The quotient paths run
/// whenever `oracle.Structure()` publishes a quotient; results are identical
/// either way.
ListColoringResult GreedyListColoring(const ConflictOracle& oracle,
                                      std::vector<int64_t> initial,
                                      const std::vector<int64_t>& candidates);

}  // namespace cextend

#endif  // CEXTEND_GRAPH_LIST_COLORING_H_
