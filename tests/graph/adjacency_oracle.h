// Reference oracle for AdjacencyGraph::FromPackedPairs: one global
// comparison sort + unique over the packed pairs, then a single scatter.
// Slower than the production counting-sort build (O(P log P)) but short
// enough to check by eye; the production CSR must match it exactly.

#ifndef CEXTEND_TESTS_GRAPH_ADJACENCY_ORACLE_H_
#define CEXTEND_TESTS_GRAPH_ADJACENCY_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cextend {
namespace adjacency_oracle {

/// A CSR simple graph in plain vectors: row v's neighbors are
/// neighbors[offsets[v], offsets[v + 1]), sorted and unique.
struct Csr {
  std::vector<size_t> offsets;     // n + 1 entries
  std::vector<uint32_t> neighbors; // 2 * unique pairs
};

/// Same input contract as FromPackedPairs: (u << 32) | v with u < v < n.
inline Csr FromPackedPairs(size_t n, std::vector<uint64_t> packed_pairs) {
  std::sort(packed_pairs.begin(), packed_pairs.end());
  packed_pairs.erase(std::unique(packed_pairs.begin(), packed_pairs.end()),
                     packed_pairs.end());
  Csr g;
  g.offsets.assign(n + 1, 0);
  for (uint64_t p : packed_pairs) {
    ++g.offsets[(p >> 32) + 1];
    ++g.offsets[(p & 0xFFFFFFFFULL) + 1];
  }
  for (size_t i = 1; i <= n; ++i) g.offsets[i] += g.offsets[i - 1];
  g.neighbors.resize(packed_pairs.size() * 2);
  std::vector<size_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (uint64_t p : packed_pairs) {
    size_t u = static_cast<size_t>(p >> 32);
    size_t v = static_cast<size_t>(p & 0xFFFFFFFFULL);
    g.neighbors[cursor[u]++] = static_cast<uint32_t>(v);
    g.neighbors[cursor[v]++] = static_cast<uint32_t>(u);
  }
  // Runs come out sorted: scanning the (u, v)-sorted unique pairs, row x
  // first collects its lower neighbors u in ascending order (every (u, x)
  // precedes (x, ·)) and then its higher neighbors v within the (x, ·) run.
  return g;
}

}  // namespace adjacency_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_GRAPH_ADJACENCY_ORACLE_H_
