// Reference check for hypergraph colorings: every edge must see at least
// two distinct colors among its vertices. The colorers never call it; tests
// use it to check their results edge by edge.

#ifndef CEXTEND_TESTS_GRAPH_COLORING_ORACLE_H_
#define CEXTEND_TESTS_GRAPH_COLORING_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"
#include "graph/list_coloring.h"

namespace cextend {
namespace coloring_oracle {

/// A coloring is proper when every edge has >= 2 distinct colors among its
/// vertices. Uncolored vertices (kNoColor) make an edge improper.
inline bool IsProperColoring(const Hypergraph& g,
                             const std::vector<int64_t>& colors) {
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const std::vector<int>& edge = g.edge(e);
    bool distinct = false;
    const int64_t first = colors[static_cast<size_t>(edge[0])];
    if (first == kNoColor) return false;
    for (size_t i = 1; i < edge.size(); ++i) {
      const int64_t c = colors[static_cast<size_t>(edge[i])];
      if (c == kNoColor) return false;  // uncolored vertices break the edge
      if (c != first) distinct = true;
    }
    if (!distinct) return false;
  }
  return true;
}

}  // namespace coloring_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_GRAPH_COLORING_ORACLE_H_
