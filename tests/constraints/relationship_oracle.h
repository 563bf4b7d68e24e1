// Reference oracle for ClassifyAll: the direct, map-based reading of
// Definitions 4.2-4.4. Each pair compares the per-attribute AttrSets of both
// CCs by name, merging R1 and R2 sides per pair, with set containment and
// disjointness decided on the AttrSets themselves (SubsetOf, DisjointFrom).
// Slow (it allocates per pair) but short enough to check by eye; the
// production classifier, which compares compiled code terms instead, must
// match it entry for entry.

#ifndef CEXTEND_TESTS_CONSTRAINTS_RELATIONSHIP_ORACLE_H_
#define CEXTEND_TESTS_CONSTRAINTS_RELATIONSHIP_ORACLE_H_

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/relationship.h"
#include "relational/attr_set.h"
#include "relational/schema.h"
#include "util/statusor.h"

namespace cextend {
namespace relationship_oracle {

/// True when a ⊆ b can be *proven*. Unknown only contains itself.
inline bool SubsetOf(const AttrSet& a, const AttrSet& b) {
  using Kind = AttrSet::Kind;
  if (a.IsEmpty()) return true;
  if (a.kind() == Kind::kUnknown || b.kind() == Kind::kUnknown) return a == b;
  const std::vector<std::string>& av = a.values();
  const std::vector<std::string>& bv = b.values();
  if (a.kind() == Kind::kInterval && b.kind() == Kind::kInterval)
    return a.lo() >= b.lo() && a.hi() <= b.hi();
  if (a.kind() == Kind::kCatPositive && b.kind() == Kind::kCatPositive)
    return std::includes(bv.begin(), bv.end(), av.begin(), av.end());
  if (a.kind() == Kind::kCatPositive && b.kind() == Kind::kCatNegative) {
    std::vector<std::string> common;
    std::set_intersection(av.begin(), av.end(), bv.begin(), bv.end(),
                          std::back_inserter(common));
    return common.empty();
  }
  if (a.kind() == Kind::kCatNegative && b.kind() == Kind::kCatNegative) {
    // comp(A) ⊆ comp(B) iff B ⊆ A
    return std::includes(av.begin(), av.end(), bv.begin(), bv.end());
  }
  // kCatNegative ⊆ kCatPositive cannot be proven without the full domain.
  return false;
}

/// True when a ∩ b = ∅ can be *proven*.
inline bool DisjointFrom(const AttrSet& a, const AttrSet& b) {
  if (a.IsEmpty() || b.IsEmpty()) return true;
  if (a.kind() == AttrSet::Kind::kUnknown ||
      b.kind() == AttrSet::Kind::kUnknown) {
    return false;
  }
  const AttrSet inter = a.IntersectWith(b);
  return inter.kind() != AttrSet::Kind::kUnknown && inter.IsEmpty();
}

/// Per-CC attribute sets, split by side.
struct CcAttrSets {
  std::map<std::string, AttrSet> r1;
  std::map<std::string, AttrSet> r2;
};

inline StatusOr<CcAttrSets> ComputeCcAttrSets(const CardinalityConstraint& cc,
                                              const Schema& r1_schema,
                                              const Schema& r2_schema) {
  CcAttrSets out;
  CEXTEND_ASSIGN_OR_RETURN(out.r1,
                           ComputeAttrSets(cc.r1_condition, r1_schema));
  CEXTEND_ASSIGN_OR_RETURN(out.r2,
                           ComputeAttrSets(cc.r2_condition, r2_schema));
  return out;
}

/// True when some attribute common to both maps has provably disjoint sets,
/// or either condition is unsatisfiable on its own.
inline bool ConditionsDisjoint(const std::map<std::string, AttrSet>& a,
                               const std::map<std::string, AttrSet>& b) {
  for (const auto& [attr, set_a] : a) {
    if (set_a.IsEmpty()) return true;
    auto it = b.find(attr);
    if (it != b.end() && DisjointFrom(set_a, it->second)) return true;
  }
  for (const auto& [attr, set_b] : b) {
    if (set_b.IsEmpty()) return true;
  }
  return false;
}

/// True when the conditions are syntactically identical (same attributes,
/// equal sets).
inline bool ConditionsEqual(const std::map<std::string, AttrSet>& a,
                            const std::map<std::string, AttrSet>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [attr, set_a] : a) {
    auto it = b.find(attr);
    if (it == b.end() || !(set_a == it->second)) return false;
  }
  return true;
}

/// Definition 4.3: condition `a` is contained in condition `b` when `a`
/// mentions a (non-strict) superset of b's attributes and, per common
/// attribute, a's set is a subset of b's.
inline bool ConditionContained(const std::map<std::string, AttrSet>& a,
                               const std::map<std::string, AttrSet>& b) {
  for (const auto& [attr, set_b] : b) {
    auto it = a.find(attr);
    if (it == a.end()) return false;  // b mentions an attr a lacks
    if (!SubsetOf(it->second, set_b)) return false;
  }
  return true;
}

/// R1 ∪ R2 by attribute name; R1 wins a name collision.
inline std::map<std::string, AttrSet> MergeSides(const CcAttrSets& s) {
  std::map<std::string, AttrSet> merged = s.r1;
  merged.insert(s.r2.begin(), s.r2.end());
  return merged;
}

inline CcRelation ClassifyPair(const CcAttrSets& a, const CcAttrSets& b) {
  // Definition 4.2, first clause: R1 conditions disjoint.
  if (ConditionsDisjoint(a.r1, b.r1)) return CcRelation::kDisjoint;
  // Definition 4.2, second clause: identical R1 conditions, disjoint R2.
  if (ConditionsEqual(a.r1, b.r1) && ConditionsDisjoint(a.r2, b.r2))
    return CcRelation::kDisjoint;

  std::map<std::string, AttrSet> ma = MergeSides(a);
  std::map<std::string, AttrSet> mb = MergeSides(b);
  bool a_in_b = ConditionContained(ma, mb);
  bool b_in_a = ConditionContained(mb, ma);
  if (a_in_b && b_in_a) return CcRelation::kEqual;
  if (a_in_b) return CcRelation::kFirstInSecond;
  if (b_in_a) return CcRelation::kSecondInFirst;
  return CcRelation::kIntersecting;
}

/// All pairs, row-major: entry i * n + j relates ccs[i] to ccs[j]; the
/// diagonal is kEqual.
inline StatusOr<std::vector<CcRelation>> ClassifyAll(
    const std::vector<CardinalityConstraint>& ccs, const Schema& r1_schema,
    const Schema& r2_schema) {
  std::vector<CcAttrSets> sets;
  for (const CardinalityConstraint& cc : ccs) {
    CEXTEND_ASSIGN_OR_RETURN(CcAttrSets s,
                             ComputeCcAttrSets(cc, r1_schema, r2_schema));
    sets.push_back(std::move(s));
  }
  const size_t n = ccs.size();
  std::vector<CcRelation> out(n * n, CcRelation::kEqual);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) out[i * n + j] = ClassifyPair(sets[i], sets[j]);
    }
  }
  return out;
}

}  // namespace relationship_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CONSTRAINTS_RELATIONSHIP_ORACLE_H_
