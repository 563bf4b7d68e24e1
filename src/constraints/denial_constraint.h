// Foreign-key denial constraints (Definition 2.2):
//     ∀ t1..tk  ¬( p1 ∧ … ∧ p_{n-1} ∧ t1.FK = … = tk.FK )
// Each predicate atom is either
//   * unary:   t_i.A ∘ c            (∘ ∈ {=, ≠, <, ≤, >, ≥, IN}),
//   * binary:  t_i.A ∘ t_j.B + off  (integer columns; `off` enables the
//              census age-gap conditions like t2.Age < t1.Age − 50).
// The final "all tuples share the FK" conjunct is implicit: phase II only
// ever evaluates DCs on candidate sets that would share a foreign key.
// A unary atom has the form of a CC selection condition, so the unary atoms
// of each tuple variable bind as one BoundPredicate (relational/predicate.h)
// — the DC's "side" for that variable — and evaluate as one.

#ifndef CEXTEND_CONSTRAINTS_DENIAL_CONSTRAINT_H_
#define CEXTEND_CONSTRAINTS_DENIAL_CONSTRAINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/predicate.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {

/// One conjunct of a DC body.
struct DcAtom {
  bool is_binary = false;
  int lhs_tuple = 0;         ///< tuple-variable index of the left operand
  std::string lhs_column;
  CompareOp op = CompareOp::kEq;

  // Unary form.
  Value rhs_value;
  std::vector<Value> rhs_values;  ///< for kIn

  // Binary form.
  int rhs_tuple = 0;
  std::string rhs_column;
  int64_t offset = 0;  ///< rhs cell + offset is the compared quantity

  std::string ToString() const;
};

/// A symbolic FK denial constraint on relation R1.
class DenialConstraint {
 public:
  DenialConstraint(int arity, std::string name)
      : arity_(arity), name_(std::move(name)) {}

  /// Adds `t[tuple].column ∘ value`.
  DenialConstraint& Unary(int tuple, std::string column, CompareOp op,
                          Value value);
  /// Adds `t[tuple].column IN values`.
  DenialConstraint& UnaryIn(int tuple, std::string column,
                            std::vector<Value> values);
  /// Adds `t[lhs].lhs_col ∘ (t[rhs].rhs_col + offset)`.
  DenialConstraint& Binary(int lhs, std::string lhs_col, CompareOp op, int rhs,
                           std::string rhs_col, int64_t offset = 0);

  int arity() const { return arity_; }
  const std::string& name() const { return name_; }
  const std::vector<DcAtom>& atoms() const { return atoms_; }

  std::string ToString() const;

 private:
  int arity_;
  std::string name_;
  std::vector<DcAtom> atoms_;
};

/// A DC compiled against a concrete table for code-level evaluation.
class BoundDenialConstraint {
 public:
  /// One bound binary atom `t[lhs_tuple].lhs_col ∘ t[rhs_tuple].rhs_col +
  /// offset`. Exposed so the indexed conflict builder can bucket vertices by
  /// the codes of equality-atom columns and sort runs for ordering atoms
  /// instead of evaluating CrossAtomsHold per candidate pair.
  struct CrossAtom {
    int lhs_tuple;
    size_t lhs_col;
    CompareOp op;
    int rhs_tuple;
    size_t rhs_col;
    int64_t offset;

    /// A cross atom relates two distinct tuple variables; `t0.A < t0.B`
    /// style atoms constrain a single side and act as extra side filters.
    bool IsCross() const { return lhs_tuple != rhs_tuple; }
  };

  static StatusOr<BoundDenialConstraint> Bind(const DenialConstraint& dc,
                                              const Table& table);

  int arity() const { return arity_; }

  /// All bound binary atoms, in declaration order.
  const std::vector<CrossAtom>& cross_atoms() const { return binary_; }

  /// Evaluates one binary atom on raw cell codes (NULL operands never hold,
  /// matching CrossAtomsHold).
  static bool CrossAtomHolds(const CrossAtom& a, int64_t lhs_cell,
                             int64_t rhs_cell);

  /// True when the DC body φ holds for the *ordered* assignment rows[i] →
  /// tuple variable i (i.e. giving these rows one FK value would violate
  /// the DC). `rows.size()` must equal arity().
  bool BodyHolds(const Table& table, const std::vector<uint32_t>& rows) const;

  /// True when *some* ordering of the distinct rows makes the body hold.
  /// This is the semantics of a conflict-hypergraph edge.
  bool BodyHoldsUnordered(const Table& table,
                          std::vector<uint32_t> rows) const;

  /// True when row satisfies all unary atoms of tuple variable `var` —
  /// used to pre-filter candidates in the streaming conflict builder.
  bool SideMatches(const Table& table, uint32_t row, int var) const {
    return sides_[static_cast<size_t>(var)].Matches(table, row);
  }

  /// match[i] = SideMatches(table, rows[i], var) for every i, by
  /// BoundPredicate::MatchesBatch's column sweep — the conflict builder's
  /// side-mask and the final fill's clique-class hot path.
  void SideMatchesBatch(const Table& table, const std::vector<uint32_t>& rows,
                        int var, std::vector<uint8_t>* match) const {
    sides_[static_cast<size_t>(var)].MatchesBatch(table, rows, match);
  }

  /// Appends every column some atom (unary or binary) reads, the atoms of
  /// an always-false side included. The body's truth on a row tuple depends
  /// on these columns' codes alone.
  void AppendReadColumns(std::vector<size_t>* cols) const;

  /// Evaluates only the binary (cross-tuple) atoms for the ordered rows.
  bool CrossAtomsHold(const Table& table,
                      const std::vector<uint32_t>& rows) const;

  /// Sound static test of whether the body can hold with one row bound to
  /// every tuple variable. False means no row of any table can; true is
  /// only "maybe". It is false when
  ///   * some side never matches;
  ///   * two variables carry =/IN atoms on one column with disjoint codes
  ///     (t0.Rel = Owner, t1.Rel = Spouse);
  ///   * a binary atom compares a column with itself and x ∘ x + offset
  ///     fails for every x (t1.Age < t0.Age - 12).
  /// The final fill uses it to drop DCs that can form no clique class.
  bool MayHoldOnOneRow() const;

 private:
  int arity_ = 2;
  std::vector<BoundPredicate> sides_;  // one per tuple variable
  std::vector<CrossAtom> binary_;
};

/// Convenience: binds every DC in `dcs` against `table`.
StatusOr<std::vector<BoundDenialConstraint>> BindAll(
    const std::vector<DenialConstraint>& dcs, const Table& table);

}  // namespace cextend

#endif  // CEXTEND_CONSTRAINTS_DENIAL_CONSTRAINT_H_
