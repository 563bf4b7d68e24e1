// Reference binder and evaluator for denial constraints with one bound
// record per unary atom (`t_i.A ∘ c`) and its own operator switch. The
// library binds each tuple variable's unary atoms as one BoundPredicate
// instead (constraints/denial_constraint.h); dc_side_oracle_test checks it
// against this on census and seeded random DCs.

#ifndef CEXTEND_TESTS_CONSTRAINTS_DC_SIDE_ORACLE_H_
#define CEXTEND_TESTS_CONSTRAINTS_DC_SIDE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "constraints/denial_constraint.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {
namespace dc_side_oracle {

struct BoundUnary {
  int tuple = 0;
  size_t col = 0;
  CompareOp op = CompareOp::kEq;
  int64_t rhs = kNullCode;
  std::vector<int64_t> rhs_set;
  bool never_matches = false;  // e.g. equality against a string absent
                               // from the dictionary
};

struct OracleDc {
  int arity = 2;
  std::vector<BoundUnary> unary;
  std::vector<BoundDenialConstraint::CrossAtom> binary;
};

inline bool OracleCompare(int64_t lhs, CompareOp op, int64_t rhs) {
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
      return false;  // IN is unary-only
  }
  return false;
}

inline bool EvalUnary(const BoundUnary& a, int64_t cell) {
  if (a.never_matches) return false;
  if (cell == kNullCode) return false;
  switch (a.op) {
    case CompareOp::kEq:
      return cell == a.rhs;
    case CompareOp::kNe:
      return a.rhs == kNullCode || cell != a.rhs;
    case CompareOp::kLt:
      return cell < a.rhs;
    case CompareOp::kLe:
      return cell <= a.rhs;
    case CompareOp::kGt:
      return cell > a.rhs;
    case CompareOp::kGe:
      return cell >= a.rhs;
    case CompareOp::kIn:
      return std::binary_search(a.rhs_set.begin(), a.rhs_set.end(), cell);
  }
  return false;
}

inline StatusOr<OracleDc> Bind(const DenialConstraint& dc,
                               const Table& table) {
  OracleDc bound;
  bound.arity = dc.arity();
  const Schema& schema = table.schema();
  for (const DcAtom& atom : dc.atoms()) {
    if (atom.lhs_tuple < 0 || atom.lhs_tuple >= dc.arity() ||
        (atom.is_binary &&
         (atom.rhs_tuple < 0 || atom.rhs_tuple >= dc.arity()))) {
      return Status::InvalidArgument("tuple variable out of range: " +
                                     atom.ToString());
    }
    auto lhs_col = schema.IndexOf(atom.lhs_column);
    if (!lhs_col.has_value()) {
      return Status::InvalidArgument("unknown column " + atom.lhs_column);
    }
    if (atom.is_binary) {
      auto rhs_col = schema.IndexOf(atom.rhs_column);
      if (!rhs_col.has_value()) {
        return Status::InvalidArgument("unknown column " + atom.rhs_column);
      }
      bool lhs_is_string = schema.column(*lhs_col).type == DataType::kString;
      bool rhs_is_string = schema.column(*rhs_col).type == DataType::kString;
      if (lhs_is_string != rhs_is_string) {
        return Status::InvalidArgument("mixed column types");
      }
      if (lhs_is_string &&
          (atom.offset != 0 ||
           (atom.op != CompareOp::kEq && atom.op != CompareOp::kNe))) {
        return Status::InvalidArgument("string ordering or offset");
      }
      if (lhs_is_string &&
          table.dictionary(*lhs_col) != table.dictionary(*rhs_col) &&
          atom.lhs_column != atom.rhs_column) {
        return Status::InvalidArgument("cross-dictionary comparison");
      }
      bound.binary.push_back({atom.lhs_tuple, *lhs_col, atom.op,
                              atom.rhs_tuple, *rhs_col, atom.offset});
      continue;
    }
    BoundUnary u;
    u.tuple = atom.lhs_tuple;
    u.col = *lhs_col;
    u.op = atom.op;
    bool is_ordering = atom.op == CompareOp::kLt || atom.op == CompareOp::kLe ||
                       atom.op == CompareOp::kGt || atom.op == CompareOp::kGe;
    if (schema.column(*lhs_col).type == DataType::kString && is_ordering) {
      return Status::InvalidArgument("ordering comparison on string column");
    }
    if (atom.op == CompareOp::kIn) {
      for (const Value& v : atom.rhs_values) {
        auto code = table.FindCode(*lhs_col, v);
        if (code.has_value() && *code != kNullCode) u.rhs_set.push_back(*code);
      }
      std::sort(u.rhs_set.begin(), u.rhs_set.end());
      if (u.rhs_set.empty()) u.never_matches = true;
    } else {
      auto code = table.FindCode(*lhs_col, atom.rhs_value);
      if (!code.has_value()) {
        if (atom.op == CompareOp::kEq) {
          u.never_matches = true;
        } else if (atom.op == CompareOp::kNe) {
          u.rhs = kNullCode;  // != NULL: all non-null cells match
        } else {
          return Status::InvalidArgument("bad constant in DC atom");
        }
      } else {
        u.rhs = *code;
      }
    }
    bound.unary.push_back(std::move(u));
  }
  return bound;
}

inline bool SideMatches(const OracleDc& dc, const Table& table, uint32_t row,
                        int var) {
  for (const BoundUnary& a : dc.unary) {
    if (a.tuple != var) continue;
    if (!EvalUnary(a, table.GetCode(row, a.col))) return false;
  }
  return true;
}

inline bool CrossAtomsHold(const OracleDc& dc, const Table& table,
                           const std::vector<uint32_t>& rows) {
  for (const BoundDenialConstraint::CrossAtom& b : dc.binary) {
    int64_t lhs = table.GetCode(rows[static_cast<size_t>(b.lhs_tuple)],
                                b.lhs_col);
    int64_t rhs = table.GetCode(rows[static_cast<size_t>(b.rhs_tuple)],
                                b.rhs_col);
    if (lhs == kNullCode || rhs == kNullCode ||
        !OracleCompare(lhs, b.op, rhs + b.offset)) {
      return false;
    }
  }
  return true;
}

/// The body on the ordered assignment rows[i] -> tuple variable i.
inline bool BodyHolds(const OracleDc& dc, const Table& table,
                      const std::vector<uint32_t>& rows) {
  for (const BoundUnary& a : dc.unary) {
    if (!EvalUnary(a, table.GetCode(rows[static_cast<size_t>(a.tuple)],
                                    a.col))) {
      return false;
    }
  }
  return CrossAtomsHold(dc, table, rows);
}

/// The body under some ordering of `rows`.
inline bool BodyHoldsUnordered(const OracleDc& dc, const Table& table,
                               std::vector<uint32_t> rows) {
  std::sort(rows.begin(), rows.end());
  do {
    if (BodyHolds(dc, table, rows)) return true;
  } while (std::next_permutation(rows.begin(), rows.end()));
  return false;
}

/// Every column an atom reads, sorted and deduplicated.
inline std::vector<size_t> ReadColumns(const OracleDc& dc) {
  std::vector<size_t> cols;
  for (const BoundUnary& a : dc.unary) cols.push_back(a.col);
  for (const BoundDenialConstraint::CrossAtom& a : dc.binary) {
    cols.push_back(a.lhs_col);
    cols.push_back(a.rhs_col);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

inline bool MayHoldOnOneRow(const OracleDc& dc) {
  auto admitted = [](const BoundUnary& a) {
    return a.op == CompareOp::kIn ? a.rhs_set : std::vector<int64_t>{a.rhs};
  };
  auto is_membership = [](const BoundUnary& a) {
    return a.op == CompareOp::kEq || a.op == CompareOp::kIn;
  };
  for (size_t i = 0; i < dc.unary.size(); ++i) {
    const BoundUnary& a = dc.unary[i];
    if (a.never_matches) return false;
    if (!is_membership(a)) continue;
    std::vector<int64_t> a_codes = admitted(a);
    for (size_t j = i + 1; j < dc.unary.size(); ++j) {
      const BoundUnary& b = dc.unary[j];
      if (b.col != a.col || !is_membership(b)) continue;
      std::vector<int64_t> b_codes = admitted(b);
      std::vector<int64_t> common;
      std::set_intersection(a_codes.begin(), a_codes.end(), b_codes.begin(),
                            b_codes.end(), std::back_inserter(common));
      if (common.empty()) return false;
    }
  }
  for (const BoundDenialConstraint::CrossAtom& a : dc.binary) {
    if (a.lhs_col == a.rhs_col && !OracleCompare(0, a.op, a.offset)) {
      return false;
    }
  }
  return true;
}

}  // namespace dc_side_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CONSTRAINTS_DC_SIDE_ORACLE_H_
