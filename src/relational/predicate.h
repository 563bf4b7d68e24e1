// Conjunctive selection predicates over table columns.
//
// A `Predicate` is a conjunction of atoms of the forms
//     A ∘ c           with ∘ ∈ {=, ≠, <, ≤, >, ≥}
//     A IN {c1..ck}
// matching the linear-CC selection conditions of Definition 2.4 in the paper.
// Predicates are symbolic (column names + typed constants); `BoundPredicate`
// compiles one against a concrete table for fast code-level evaluation. The
// same atom form is a DC's unary atom `t_i.A ∘ c` (Definition 2.2), so a
// BoundDenialConstraint binds each tuple variable's unary atoms as one
// BoundPredicate, and CompareCodes below is the one operator switch over
// codes.

#ifndef CEXTEND_RELATIONAL_PREDICATE_H_
#define CEXTEND_RELATIONAL_PREDICATE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/table.h"
#include "relational/value.h"
#include "util/statusor.h"

namespace cextend {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kIn };

const char* CompareOpToString(CompareOp op);

/// `lhs op rhs` on raw codes. kIn never holds: membership is decided by
/// BoundPredicate::AtomHolds. NULL handling is the caller's.
inline bool CompareCodes(int64_t lhs, CompareOp op, int64_t rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kIn:
      return false;
  }
  return false;
}

/// One conjunct of a predicate.
struct Atom {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value value;                // for all ops except kIn
  std::vector<Value> values;  // for kIn

  std::string ToString() const;
};

/// Conjunction of atoms. An empty predicate is TRUE.
class Predicate {
 public:
  Predicate() = default;

  static Predicate True() { return Predicate(); }

  /// Fluent builders (each returns *this for chaining).
  Predicate& Eq(std::string column, Value value);
  Predicate& Ne(std::string column, Value value);
  Predicate& Lt(std::string column, Value value);
  Predicate& Le(std::string column, Value value);
  Predicate& Gt(std::string column, Value value);
  Predicate& Ge(std::string column, Value value);
  Predicate& In(std::string column, std::vector<Value> values);
  /// lo <= column <= hi (two atoms).
  Predicate& Between(std::string column, int64_t lo, int64_t hi);
  Predicate& AddAtom(Atom atom);

  const std::vector<Atom>& atoms() const { return atoms_; }
  bool IsTrue() const { return atoms_.empty(); }

  /// Distinct column names mentioned, in first-mention order.
  std::vector<std::string> Columns() const;

  /// Conjunction of this predicate and `other`.
  Predicate AndWith(const Predicate& other) const;

  std::string ToString() const;

 private:
  std::vector<Atom> atoms_;
};

/// A predicate compiled against a table's schema and dictionaries. Cheap to
/// evaluate per row (integer comparisons only). NULL cells fail every atom.
class BoundPredicate {
 public:
  /// Binds `pred` to `table`'s schema/dictionaries. Fails when a column is
  /// missing, a constant has the wrong type, or an ordering comparison is
  /// applied to a string column, whichever atom it is in: every atom is
  /// bound and checked, also after one that can never hold.
  static StatusOr<BoundPredicate> Bind(const Predicate& pred,
                                       const Table& table);

  /// True when every atom holds for `table` row `row`.
  bool Matches(const Table& table, size_t row) const;

  /// Column-sweep batch form of Matches: match[i] = Matches(table, rows[i])
  /// for every i. One pass per atom over the raw column codes (the dominant
  /// equality op is branch-free) instead of a per-row atom loop.
  void MatchesBatch(const Table& table, const std::vector<uint32_t>& rows,
                    std::vector<uint8_t>* match) const;

  /// Number of matching rows.
  size_t CountMatches(const Table& table) const;

  /// One conjunct compiled to codes. An absent `!=` constant binds as
  /// `!= kNullCode` ("any non-NULL cell"), an absent `=` constant as
  /// `= kNullCode` (no cell).
  struct BoundAtom {
    size_t col = 0;
    CompareOp op = CompareOp::kEq;
    int64_t rhs = 0;
    std::vector<int64_t> rhs_set;  // sorted, for kIn
  };

  /// True when `atom` holds for a cell holding `cell`. Matches() is the AND
  /// of this over atoms(), so column sweeps over atoms agree with it.
  static bool AtomHolds(const BoundAtom& atom, int64_t cell) {
    // NULL fails every atom, the synthetic "!= NULL" included.
    if (cell == kNullCode) return false;
    if (atom.op == CompareOp::kIn) {
      return std::binary_search(atom.rhs_set.begin(), atom.rhs_set.end(),
                                cell);
    }
    return CompareCodes(cell, atom.op, atom.rhs);
  }

  /// True when binding found a conjunct no cell can satisfy (an absent `=`
  /// constant, an IN list with no present value). atoms() still holds every
  /// conjunct, that one included, so the columns read stay the same.
  bool always_false() const { return always_false_; }
  const std::vector<BoundAtom>& atoms() const { return atoms_; }

 private:
  bool always_false_ = false;
  std::vector<BoundAtom> atoms_;
};

}  // namespace cextend

#endif  // CEXTEND_RELATIONAL_PREDICATE_H_
