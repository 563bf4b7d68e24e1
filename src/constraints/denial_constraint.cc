#include "constraints/denial_constraint.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {

std::string DcAtom::ToString() const {
  std::string lhs = StrFormat("t%d.%s", lhs_tuple, lhs_column.c_str());
  if (is_binary) {
    std::string rhs = StrFormat("t%d.%s", rhs_tuple, rhs_column.c_str());
    if (offset > 0) rhs += StrFormat("+%lld", static_cast<long long>(offset));
    if (offset < 0) rhs += StrFormat("%lld", static_cast<long long>(offset));
    return lhs + " " + CompareOpToString(op) + " " + rhs;
  }
  if (op == CompareOp::kIn) {
    std::string out = lhs + " IN {";
    for (size_t i = 0; i < rhs_values.size(); ++i) {
      if (i > 0) out += ",";
      out += rhs_values[i].ToString();
    }
    return out + "}";
  }
  return lhs + " " + CompareOpToString(op) + " " + rhs_value.ToString();
}

// Setters accept any tuple index; range validation happens at Bind time so
// malformed user-supplied constraints surface as InvalidArgument instead of
// aborting the process.
DenialConstraint& DenialConstraint::Unary(int tuple, std::string column,
                                          CompareOp op, Value value) {
  DcAtom a;
  a.is_binary = false;
  a.lhs_tuple = tuple;
  a.lhs_column = std::move(column);
  a.op = op;
  a.rhs_value = std::move(value);
  atoms_.push_back(std::move(a));
  return *this;
}

DenialConstraint& DenialConstraint::UnaryIn(int tuple, std::string column,
                                            std::vector<Value> values) {
  DcAtom a;
  a.is_binary = false;
  a.lhs_tuple = tuple;
  a.lhs_column = std::move(column);
  a.op = CompareOp::kIn;
  a.rhs_values = std::move(values);
  atoms_.push_back(std::move(a));
  return *this;
}

DenialConstraint& DenialConstraint::Binary(int lhs, std::string lhs_col,
                                           CompareOp op, int rhs,
                                           std::string rhs_col,
                                           int64_t offset) {
  DcAtom a;
  a.is_binary = true;
  a.lhs_tuple = lhs;
  a.lhs_column = std::move(lhs_col);
  a.op = op;
  a.rhs_tuple = rhs;
  a.rhs_column = std::move(rhs_col);
  a.offset = offset;
  atoms_.push_back(std::move(a));
  return *this;
}

std::string DenialConstraint::ToString() const {
  std::string out = name_ + ": forall t0..t" + std::to_string(arity_ - 1) +
                    " NOT(";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += atoms_[i].ToString();
  }
  out += " AND sharedFK)";
  return out;
}

StatusOr<BoundDenialConstraint> BoundDenialConstraint::Bind(
    const DenialConstraint& dc, const Table& table) {
  BoundDenialConstraint bound;
  bound.arity_ = dc.arity();
  const Schema& schema = table.schema();
  for (const DcAtom& atom : dc.atoms()) {
    if (atom.lhs_tuple < 0 || atom.lhs_tuple >= dc.arity() ||
        (atom.is_binary &&
         (atom.rhs_tuple < 0 || atom.rhs_tuple >= dc.arity()))) {
      return Status::InvalidArgument(
          "DC atom references a tuple variable outside t0..t" +
          std::to_string(dc.arity() - 1) + ": " + atom.ToString());
    }
    auto lhs_col = schema.IndexOf(atom.lhs_column);
    if (!lhs_col.has_value()) {
      return Status::InvalidArgument("DC references unknown column " +
                                     atom.lhs_column);
    }
    if (atom.is_binary) {
      auto rhs_col = schema.IndexOf(atom.rhs_column);
      if (!rhs_col.has_value()) {
        return Status::InvalidArgument("DC references unknown column " +
                                       atom.rhs_column);
      }
      bool lhs_is_string =
          schema.column(*lhs_col).type == DataType::kString;
      bool rhs_is_string =
          schema.column(*rhs_col).type == DataType::kString;
      if (lhs_is_string != rhs_is_string) {
        return Status::InvalidArgument("DC compares mixed column types: " +
                                       atom.ToString());
      }
      if (lhs_is_string &&
          (atom.offset != 0 ||
           (atom.op != CompareOp::kEq && atom.op != CompareOp::kNe))) {
        return Status::InvalidArgument(
            "string columns support only =/!= with no offset: " +
            atom.ToString());
      }
      if (lhs_is_string &&
          table.dictionary(*lhs_col) != table.dictionary(*rhs_col) &&
          atom.lhs_column != atom.rhs_column) {
        // Codes from different dictionaries are not comparable; the census
        // DCs only ever compare a column with itself, so reject otherwise.
        return Status::InvalidArgument(
            "cross-dictionary string comparison: " + atom.ToString());
      }
      bound.binary_.push_back(CrossAtom{atom.lhs_tuple, *lhs_col, atom.op,
                                        atom.rhs_tuple, *rhs_col,
                                        atom.offset});
    } else {
      BoundUnary u;
      u.tuple = atom.lhs_tuple;
      u.col = *lhs_col;
      u.op = atom.op;
      bool is_ordering =
          atom.op == CompareOp::kLt || atom.op == CompareOp::kLe ||
          atom.op == CompareOp::kGt || atom.op == CompareOp::kGe;
      if (schema.column(*lhs_col).type == DataType::kString && is_ordering) {
        return Status::InvalidArgument(
            "ordering comparison on string column: " + atom.ToString());
      }
      if (atom.op == CompareOp::kIn) {
        for (const Value& v : atom.rhs_values) {
          auto code = table.FindCode(*lhs_col, v);
          if (code.has_value() && *code != kNullCode)
            u.rhs_set.push_back(*code);
        }
        std::sort(u.rhs_set.begin(), u.rhs_set.end());
        if (u.rhs_set.empty()) u.never_matches = true;
      } else {
        auto code = table.FindCode(*lhs_col, atom.rhs_value);
        if (!code.has_value()) {
          if (atom.op == CompareOp::kEq) {
            u.never_matches = true;
          } else if (atom.op == CompareOp::kNe) {
            u.op = CompareOp::kNe;
            u.rhs = kNullCode;  // != NULL: all non-null cells match
          } else {
            return Status::InvalidArgument("bad constant in DC atom: " +
                                           atom.ToString());
          }
        } else {
          u.rhs = *code;
        }
      }
      bound.unary_.push_back(std::move(u));
    }
  }
  return bound;
}

bool BoundDenialConstraint::EvalUnary(const BoundUnary& a, int64_t cell) {
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

bool BoundDenialConstraint::BodyHolds(const Table& table,
                                      const std::vector<uint32_t>& rows) const {
  CEXTEND_DCHECK(static_cast<int>(rows.size()) == arity_);
  for (const BoundUnary& a : unary_) {
    if (!EvalUnary(a, table.GetCode(rows[static_cast<size_t>(a.tuple)], a.col)))
      return false;
  }
  return CrossAtomsHold(table, rows);
}

bool BoundDenialConstraint::BodyHoldsUnordered(
    const Table& table, std::vector<uint32_t> rows) const {
  CEXTEND_CHECK(static_cast<int>(rows.size()) == arity_);
  std::sort(rows.begin(), rows.end());
  do {
    if (BodyHolds(table, rows)) return true;
  } while (std::next_permutation(rows.begin(), rows.end()));
  return false;
}

bool BoundDenialConstraint::SideMatches(const Table& table, uint32_t row,
                                        int var) const {
  for (const BoundUnary& a : unary_) {
    if (a.tuple != var) continue;
    if (!EvalUnary(a, table.GetCode(row, a.col))) return false;
  }
  return true;
}

void BoundDenialConstraint::SideMatchesBatch(
    const Table& table, const std::vector<uint32_t>& rows, int var,
    std::vector<uint8_t>* match) const {
  const size_t n = rows.size();
  match->assign(n, 1);
  for (const BoundUnary& a : unary_) {
    if (a.tuple != var) continue;
    if (a.never_matches) {
      std::fill(match->begin(), match->end(), 0);
      return;
    }
    const std::vector<int64_t>& col = table.ColumnCodes(a.col);
    uint8_t* m = match->data();
    if (a.op == CompareOp::kEq && a.rhs != kNullCode) {
      // rhs is a real dictionary code, so cell == rhs already excludes
      // NULLs; the sweep stays branch-free.
      const int64_t rhs = a.rhs;
      for (size_t i = 0; i < n; ++i) {
        m[i] &= static_cast<uint8_t>(col[rows[i]] == rhs);
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      if (m[i] != 0 && !EvalUnary(a, col[rows[i]])) m[i] = 0;
    }
  }
}

bool BoundDenialConstraint::CompareCodes(int64_t lhs, CompareOp op,
                                         int64_t rhs) {
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

bool BoundDenialConstraint::CrossAtomHolds(const CrossAtom& a,
                                           int64_t lhs_cell,
                                           int64_t rhs_cell) {
  if (lhs_cell == kNullCode || rhs_cell == kNullCode) return false;
  return CompareCodes(lhs_cell, a.op, rhs_cell + a.offset);
}

bool BoundDenialConstraint::CrossAtomsHold(
    const Table& table, const std::vector<uint32_t>& rows) const {
  for (const CrossAtom& b : binary_) {
    int64_t lhs =
        table.GetCode(rows[static_cast<size_t>(b.lhs_tuple)], b.lhs_col);
    int64_t rhs =
        table.GetCode(rows[static_cast<size_t>(b.rhs_tuple)], b.rhs_col);
    if (!CrossAtomHolds(b, lhs, rhs)) return false;
  }
  return true;
}

void BoundDenialConstraint::AppendReadColumns(std::vector<size_t>* cols) const {
  for (const BoundUnary& a : unary_) cols->push_back(a.col);
  for (const CrossAtom& a : binary_) {
    cols->push_back(a.lhs_col);
    cols->push_back(a.rhs_col);
  }
}

bool BoundDenialConstraint::MayHoldOnOneRow() const {
  // The codes an =/IN atom admits, sorted (Bind sorts rhs_set).
  auto admitted = [](const BoundUnary& a) {
    return a.op == CompareOp::kIn ? a.rhs_set : std::vector<int64_t>{a.rhs};
  };
  auto is_membership = [](const BoundUnary& a) {
    return a.op == CompareOp::kEq || a.op == CompareOp::kIn;
  };
  for (size_t i = 0; i < unary_.size(); ++i) {
    const BoundUnary& a = unary_[i];
    if (a.never_matches) return false;
    if (!is_membership(a)) continue;
    std::vector<int64_t> a_codes = admitted(a);
    for (size_t j = i + 1; j < unary_.size(); ++j) {
      const BoundUnary& b = unary_[j];
      if (b.col != a.col || !is_membership(b)) continue;
      std::vector<int64_t> b_codes = admitted(b);
      std::vector<int64_t> common;
      std::set_intersection(a_codes.begin(), a_codes.end(), b_codes.begin(),
                            b_codes.end(), std::back_inserter(common));
      if (common.empty()) return false;
    }
  }
  // On one row both operands read the same cell x, and x ∘ x + offset holds
  // exactly when 0 ∘ offset does (kIn never holds).
  for (const CrossAtom& a : binary_) {
    if (a.lhs_col == a.rhs_col && !CompareCodes(0, a.op, a.offset))
      return false;
  }
  return true;
}

StatusOr<std::vector<BoundDenialConstraint>> BindAll(
    const std::vector<DenialConstraint>& dcs, const Table& table) {
  std::vector<BoundDenialConstraint> out;
  out.reserve(dcs.size());
  for (const DenialConstraint& dc : dcs) {
    CEXTEND_ASSIGN_OR_RETURN(BoundDenialConstraint b,
                             BoundDenialConstraint::Bind(dc, table));
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace cextend
