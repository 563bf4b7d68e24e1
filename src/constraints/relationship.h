// Pairwise CC relationship classification (Definitions 4.2-4.4):
// disjoint, contained, or intersecting. The classification drives the hybrid
// split of Section 4.3 (Hasse-diagram recursion vs. ILP).

#ifndef CEXTEND_CONSTRAINTS_RELATIONSHIP_H_
#define CEXTEND_CONSTRAINTS_RELATIONSHIP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "relational/schema.h"
#include "util/statusor.h"

namespace cextend {

enum class CcRelation : uint8_t {
  kDisjoint,      ///< Definition 4.2
  kFirstInSecond, ///< CC_a ⊆ CC_b (Definition 4.3)
  kSecondInFirst, ///< CC_b ⊆ CC_a
  kEqual,         ///< identical selection conditions
  kIntersecting,  ///< Definition 4.4 (neither disjoint nor contained)
};

const char* CcRelationToString(CcRelation rel);

/// Pairwise relations of n CCs as one flat row-major n×n byte matrix:
/// `At(i, j)` relates CC i to CC j. The diagonal is kEqual; the containment
/// entries are antisymmetric (At(i, j) is kFirstInSecond exactly when
/// At(j, i) is kSecondInFirst) and every other entry is symmetric.
struct CcRelationMatrix {
  CcRelationMatrix() = default;
  /// n×n, every entry kEqual.
  explicit CcRelationMatrix(size_t n)
      : matrix(n * n, CcRelation::kEqual), n_(n) {}

  std::vector<CcRelation> matrix;  ///< entry (i, j) at i * size() + j

  CcRelation At(size_t i, size_t j) const { return matrix[i * n_ + j]; }
  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

/// Classifies every pair of `ccs`; R1-side conditions resolve against
/// `r1_schema`, R2-side ones against `r2_schema`. Fails when a condition
/// names a column its schema lacks.
///
/// Each CC is compiled once: attribute names and category strings are
/// interned to integer codes in string order, and each side (R1, R2, and
/// their merge, where R1 wins a name collision) becomes a column-sorted list
/// of per-attribute value sets (relational/attr_set.h). CCs with identical
/// R1 conditions share a group, and the R1 disjointness of every group pair
/// is computed once. A pair then costs a table lookup (Definition 4.2's
/// first clause) and, when that does not decide it, merge walks over the
/// compiled lists, with no allocation.
///
/// Conservative: anything not provably disjoint or contained is
/// kIntersecting, which only routes CCs to the general ILP path (correct,
/// less efficient). An unknown (not representable) set is equal to and
/// contained in only another unknown set, and is disjoint only from empty
/// sets; an interval is never disjoint from a categorical set; and two
/// complement sets always intersect.
StatusOr<CcRelationMatrix> ClassifyAll(
    const std::vector<CardinalityConstraint>& ccs, const Schema& r1_schema,
    const Schema& r2_schema);

}  // namespace cextend

#endif  // CEXTEND_CONSTRAINTS_RELATIONSHIP_H_
