// Conjunctive selection predicates over table columns.
//
// A `Predicate` is a conjunction of atoms of the forms
//     A ∘ c           with ∘ ∈ {=, ≠, <, ≤, >, ≥}
//     A IN {c1..ck}
// matching the linear-CC selection conditions of Definition 2.4 in the paper.
// Predicates are symbolic (column names + typed constants); `BoundPredicate`
// compiles one against a concrete table for fast code-level evaluation.

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
  /// applied to a string column.
  static StatusOr<BoundPredicate> Bind(const Predicate& pred,
                                       const Table& table);

  /// True when every atom holds for `table` row `row`.
  bool Matches(const Table& table, size_t row) const;

  /// Number of matching rows.
  size_t CountMatches(const Table& table) const;

  /// Indices of matching rows.
  std::vector<uint32_t> Filter(const Table& table) const;

  /// One conjunct compiled to codes. An absent `!=` constant binds as
  /// `!= kNullCode` ("any non-NULL cell").
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
    switch (atom.op) {
      case CompareOp::kEq:
        return cell == atom.rhs;
      case CompareOp::kNe:
        return cell != atom.rhs;
      case CompareOp::kLt:
        return cell < atom.rhs;
      case CompareOp::kLe:
        return cell <= atom.rhs;
      case CompareOp::kGt:
        return cell > atom.rhs;
      case CompareOp::kGe:
        return cell >= atom.rhs;
      case CompareOp::kIn:
        return std::binary_search(atom.rhs_set.begin(), atom.rhs_set.end(),
                                  cell);
    }
    return false;
  }

  /// True when binding found a conjunct no cell can satisfy (an absent `=`
  /// constant, an IN list with no present value); atoms() is then partial.
  bool always_false() const { return always_false_; }
  const std::vector<BoundAtom>& atoms() const { return atoms_; }

 private:
  bool always_false_ = false;
  std::vector<BoundAtom> atoms_;
};

}  // namespace cextend

#endif  // CEXTEND_RELATIONAL_PREDICATE_H_
