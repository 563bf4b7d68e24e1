// Reference Hasse diagram of CC containment: the all-pairs construction
// phase I used before RouteCcs built S1's diagram from the containment pairs
// of its routing pass. Every strict superset of every CC is listed, a
// superset j of i is a covering parent when no other superset of i lies
// inside j, and the components are the union-find classes of the covering
// edges.

#ifndef CEXTEND_TESTS_CORE_HASSE_ORACLE_H_
#define CEXTEND_TESTS_CORE_HASSE_ORACLE_H_

#include <cstddef>
#include <vector>

#include "constraints/relationship.h"
#include "util/union_find.h"

namespace cextend {
namespace hasse_oracle {

struct Diagram {
  /// children[a]: the nodes a covers, ascending.
  std::vector<std::vector<int>> children;
  /// component[a]: components numbered in order of their first node.
  std::vector<int> component;
  /// Maximal elements, component by component, ascending within one.
  std::vector<int> roots;
};

/// The diagram over the CCs `ids` (indices into `relations`); node a is
/// ids[a].
inline Diagram Build(const CcRelationMatrix& relations,
                     const std::vector<int>& ids) {
  const size_t n = ids.size();
  auto at = [&](size_t a, size_t b) {
    return relations.At(static_cast<size_t>(ids[a]),
                        static_cast<size_t>(ids[b]));
  };
  Diagram d;
  d.children.assign(n, {});
  std::vector<std::vector<int>> parents(n);

  // strict_supersets[i] = all j with node i ⊂ node j (strictly).
  std::vector<std::vector<int>> strict_supersets(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && at(i, j) == CcRelation::kFirstInSecond) {
        strict_supersets[i].push_back(static_cast<int>(j));
      }
    }
  }
  // Covering edges: j covers i iff j ∈ supersets(i) and no k ∈ supersets(i)
  // with k ⊂ j.
  for (size_t i = 0; i < n; ++i) {
    for (int j : strict_supersets[i]) {
      bool covering = true;
      for (int k : strict_supersets[i]) {
        if (k != j && at(static_cast<size_t>(k), static_cast<size_t>(j)) ==
                          CcRelation::kFirstInSecond) {
          covering = false;
          break;
        }
      }
      if (covering) {
        d.children[static_cast<size_t>(j)].push_back(static_cast<int>(i));
        parents[i].push_back(j);
      }
    }
  }

  // Components over the undirected covering edges.
  UnionFind uf(n);
  for (size_t i = 0; i < n; ++i) {
    for (int c : d.children[i]) uf.Union(i, static_cast<size_t>(c));
  }
  d.component.assign(n, -1);
  std::vector<int> root_to_comp(n, -1);
  std::vector<std::vector<int>> maximal;
  for (size_t i = 0; i < n; ++i) {
    const size_t root = uf.Find(i);
    if (root_to_comp[root] < 0) {
      root_to_comp[root] = static_cast<int>(maximal.size());
      maximal.emplace_back();
    }
    d.component[i] = root_to_comp[root];
  }
  for (size_t i = 0; i < n; ++i) {
    if (parents[i].empty()) {
      maximal[static_cast<size_t>(d.component[i])].push_back(
          static_cast<int>(i));
    }
  }
  for (const std::vector<int>& m : maximal) {
    d.roots.insert(d.roots.end(), m.begin(), m.end());
  }
  return d;
}

}  // namespace hasse_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CORE_HASSE_ORACLE_H_
