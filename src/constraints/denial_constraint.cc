#include "constraints/denial_constraint.h"

#include <algorithm>

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
  std::vector<Predicate> sides(static_cast<size_t>(std::max(dc.arity(), 0)));
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
    if (!atom.is_binary) {
      sides[static_cast<size_t>(atom.lhs_tuple)].AddAtom(
          {atom.lhs_column, atom.op, atom.rhs_value, atom.rhs_values});
      continue;
    }
    auto rhs_col = schema.IndexOf(atom.rhs_column);
    if (!rhs_col.has_value()) {
      return Status::InvalidArgument("DC references unknown column " +
                                     atom.rhs_column);
    }
    bool lhs_is_string = schema.column(*lhs_col).type == DataType::kString;
    bool rhs_is_string = schema.column(*rhs_col).type == DataType::kString;
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
                                      atom.rhs_tuple, *rhs_col, atom.offset});
  }
  for (const Predicate& side : sides) {
    StatusOr<BoundPredicate> b = BoundPredicate::Bind(side, table);
    if (!b.ok()) {
      return Status::InvalidArgument("DC " + dc.name() + ": " +
                                     b.status().message());
    }
    bound.sides_.push_back(std::move(b).value());
  }
  return bound;
}

bool BoundDenialConstraint::BodyHolds(const Table& table,
                                      const std::vector<uint32_t>& rows) const {
  CEXTEND_DCHECK(static_cast<int>(rows.size()) == arity_);
  for (size_t var = 0; var < sides_.size(); ++var) {
    if (!sides_[var].Matches(table, rows[var])) return false;
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
  for (const BoundPredicate& side : sides_) {
    for (const BoundPredicate::BoundAtom& a : side.atoms()) {
      cols->push_back(a.col);
    }
  }
  for (const CrossAtom& a : binary_) {
    cols->push_back(a.lhs_col);
    cols->push_back(a.rhs_col);
  }
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
