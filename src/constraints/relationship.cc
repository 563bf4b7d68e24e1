#include "constraints/relationship.h"

#include <algorithm>
#include <compare>
#include <map>
#include <string>

#include "relational/attr_set.h"

namespace cextend {
namespace {

using Kind = AttrSet::Kind;

/// One attribute's AttrSet with the attribute name and category strings
/// replaced by integer codes. Code order is string order, so sorted codes
/// compare exactly like the sorted strings they replace.
struct Term {
  int32_t col = 0;
  Kind kind = Kind::kUnknown;
  bool empty = false;
  int64_t lo = 0;  ///< kInterval only
  int64_t hi = -1;
  std::vector<int32_t> codes;  ///< kCat* only, sorted

  /// Equal terms ⇔ equal AttrSets (same attribute).
  auto operator<=>(const Term&) const = default;
};

/// A conjunctive condition: one term per mentioned attribute, sorted by col.
using Side = std::vector<Term>;

struct CompiledCc {
  Side r1;
  Side r2;
  Side merged;  ///< R1 ∪ R2 by column; R1 wins a name collision
  bool r1_empty = false;  ///< some R1 term admits no value
  bool r2_empty = false;
};

/// String -> code, codes assigned in string order.
using Codes = std::map<std::string, int32_t>;

void NumberInOrder(Codes& codes) {
  int32_t next = 0;
  for (auto& [s, code] : codes) code = next++;
}

Side CompileSide(const std::map<std::string, AttrSet>& sets,
                 const Codes& names, const Codes& categories,
                 bool* has_empty) {
  Side side;
  // std::map iterates names in string order, which is code order.
  for (const auto& [name, set] : sets) {
    Term term;
    term.col = names.at(name);
    term.kind = set.kind();
    term.empty = set.IsEmpty();
    if (set.kind() == Kind::kInterval) {
      term.lo = set.lo();
      term.hi = set.hi();
    }
    for (const std::string& v : set.values()) {
      term.codes.push_back(categories.at(v));
    }
    *has_empty = *has_empty || term.empty;
    side.push_back(std::move(term));
  }
  return side;
}

Side MergeSides(const Side& r1, const Side& r2) {
  Side merged;
  auto i = r1.begin();
  auto j = r2.begin();
  while (i != r1.end() || j != r2.end()) {
    if (j == r2.end() || (i != r1.end() && i->col <= j->col)) {
      if (j != r2.end() && i->col == j->col) ++j;
      merged.push_back(*i++);
    } else {
      merged.push_back(*j++);
    }
  }
  return merged;
}

/// a ⊆ b for sorted codes.
bool Includes(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// a ∩ b ≠ ∅ for sorted codes.
bool Meet(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

/// True when the sets of `x` and `y` provably share no value.
bool TermsDisjoint(const Term& x, const Term& y) {
  if (x.empty || y.empty) return true;
  if (x.kind == Kind::kUnknown || y.kind == Kind::kUnknown) return false;
  if (x.kind == Kind::kInterval && y.kind == Kind::kInterval) {
    return std::max(x.lo, y.lo) > std::min(x.hi, y.hi);
  }
  if (x.kind == Kind::kInterval || y.kind == Kind::kInterval) {
    return false;  // interval vs categorical: type confusion
  }
  if (x.kind == Kind::kCatPositive && y.kind == Kind::kCatPositive) {
    return !Meet(x.codes, y.codes);
  }
  if (x.kind == Kind::kCatPositive) return Includes(x.codes, y.codes);
  if (y.kind == Kind::kCatPositive) return Includes(y.codes, x.codes);
  return false;  // complements of finite sets over an open domain meet
}

/// True when the set of `x` is provably a subset of the set of `y`.
bool TermSubset(const Term& x, const Term& y) {
  if (x.empty) return true;
  if (x.kind == Kind::kUnknown || y.kind == Kind::kUnknown) {
    return x.kind == y.kind;  // unknown sets are all equal
  }
  if (x.kind == Kind::kInterval && y.kind == Kind::kInterval) {
    return x.lo >= y.lo && x.hi <= y.hi;
  }
  if (x.kind == Kind::kCatPositive && y.kind == Kind::kCatPositive) {
    return Includes(x.codes, y.codes);
  }
  if (x.kind == Kind::kCatPositive && y.kind == Kind::kCatNegative) {
    return !Meet(x.codes, y.codes);
  }
  if (x.kind == Kind::kCatNegative && y.kind == Kind::kCatNegative) {
    return Includes(y.codes, x.codes);  // comp(A) ⊆ comp(B) iff B ⊆ A
  }
  // Negative ⊆ positive needs the full domain; mixed kinds never hold.
  return false;
}

/// True when some attribute common to both sides has provably disjoint sets.
/// (Callers check the sides' own emptiness first.)
bool CommonTermDisjoint(const Side& a, const Side& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->col < j->col) {
      ++i;
    } else if (j->col < i->col) {
      ++j;
    } else if (TermsDisjoint(*i++, *j++)) {
      return true;
    }
  }
  return false;
}

/// Definition 4.3: condition `a` is contained in condition `b` when `a`
/// mentions every attribute `b` does and, per such attribute, a's set is a
/// subset of b's.
bool Contained(const Side& a, const Side& b) {
  auto i = a.begin();
  for (const Term& y : b) {
    while (i != a.end() && i->col < y.col) ++i;
    if (i == a.end() || i->col != y.col || !TermSubset(*i, y)) return false;
  }
  return true;
}

CcRelation Mirror(CcRelation rel) {
  if (rel == CcRelation::kFirstInSecond) return CcRelation::kSecondInFirst;
  if (rel == CcRelation::kSecondInFirst) return CcRelation::kFirstInSecond;
  return rel;
}

}  // namespace

const char* CcRelationToString(CcRelation rel) {
  switch (rel) {
    case CcRelation::kDisjoint:
      return "disjoint";
    case CcRelation::kFirstInSecond:
      return "first-in-second";
    case CcRelation::kSecondInFirst:
      return "second-in-first";
    case CcRelation::kEqual:
      return "equal";
    case CcRelation::kIntersecting:
      return "intersecting";
  }
  return "?";
}

StatusOr<CcRelationMatrix> ClassifyAll(
    const std::vector<CardinalityConstraint>& ccs, const Schema& r1_schema,
    const Schema& r2_schema) {
  const size_t n = ccs.size();
  std::vector<std::map<std::string, AttrSet>> r1_sets(n);
  std::vector<std::map<std::string, AttrSet>> r2_sets(n);
  Codes names;
  Codes categories;
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_ASSIGN_OR_RETURN(r1_sets[i],
                             ComputeAttrSets(ccs[i].r1_condition, r1_schema));
    CEXTEND_ASSIGN_OR_RETURN(r2_sets[i],
                             ComputeAttrSets(ccs[i].r2_condition, r2_schema));
    for (const auto* sets : {&r1_sets[i], &r2_sets[i]}) {
      for (const auto& [name, set] : *sets) {
        names.emplace(name, 0);
        for (const std::string& v : set.values()) categories.emplace(v, 0);
      }
    }
  }
  NumberInOrder(names);
  NumberInOrder(categories);

  // Compile every CC, grouping CCs with identical R1 conditions; the first
  // member of a group represents it.
  std::vector<CompiledCc> compiled(n);
  std::vector<size_t> group(n);
  std::vector<size_t> representative;
  std::map<Side, size_t> group_of_r1;
  for (size_t i = 0; i < n; ++i) {
    CompiledCc& cc = compiled[i];
    cc.r1 = CompileSide(r1_sets[i], names, categories, &cc.r1_empty);
    cc.r2 = CompileSide(r2_sets[i], names, categories, &cc.r2_empty);
    cc.merged = MergeSides(cc.r1, cc.r2);
    auto [it, inserted] = group_of_r1.try_emplace(cc.r1, representative.size());
    if (inserted) representative.push_back(i);
    group[i] = it->second;
  }

  // Definition 4.2, first clause, once per group pair: R1 conditions
  // disjoint (either is unsatisfiable, or a common attribute's sets are).
  const size_t num_groups = representative.size();
  std::vector<uint8_t> r1_disjoint(num_groups * num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t h = g; h < num_groups; ++h) {
      const CompiledCc& a = compiled[representative[g]];
      const CompiledCc& b = compiled[representative[h]];
      r1_disjoint[g * num_groups + h] = r1_disjoint[h * num_groups + g] =
          a.r1_empty || b.r1_empty || CommonTermDisjoint(a.r1, b.r1);
    }
  }

  CcRelationMatrix out(n);
  for (size_t i = 0; i < n; ++i) {
    const CompiledCc& a = compiled[i];
    const uint8_t* disjoint_row = r1_disjoint.data() + group[i] * num_groups;
    for (size_t j = i + 1; j < n; ++j) {
      const CompiledCc& b = compiled[j];
      CcRelation rel;
      if (disjoint_row[group[j]]) {
        rel = CcRelation::kDisjoint;
      } else if (group[i] == group[j] &&
                 (a.r2_empty || b.r2_empty || CommonTermDisjoint(a.r2, b.r2))) {
        // Definition 4.2, second clause: identical R1 conditions, disjoint R2.
        rel = CcRelation::kDisjoint;
      } else {
        const bool a_in_b = Contained(a.merged, b.merged);
        const bool b_in_a = Contained(b.merged, a.merged);
        rel = a_in_b ? (b_in_a ? CcRelation::kEqual
                               : CcRelation::kFirstInSecond)
                     : (b_in_a ? CcRelation::kSecondInFirst
                               : CcRelation::kIntersecting);
      }
      out.matrix[i * n + j] = rel;
      out.matrix[j * n + i] = Mirror(rel);
    }
  }
  return out;
}

}  // namespace cextend
