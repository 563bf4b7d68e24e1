#include "relational/predicate.h"

#include <algorithm>

#include "util/string_util.h"

namespace cextend {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIn:
      return "IN";
  }
  return "?";
}

std::string Atom::ToString() const {
  if (op == CompareOp::kIn) {
    std::string out = column + " IN {";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += values[i].ToString();
    }
    return out + "}";
  }
  return column + " " + CompareOpToString(op) + " " + value.ToString();
}

Predicate& Predicate::Eq(std::string column, Value value) {
  return AddAtom({std::move(column), CompareOp::kEq, std::move(value), {}});
}
Predicate& Predicate::Ne(std::string column, Value value) {
  return AddAtom({std::move(column), CompareOp::kNe, std::move(value), {}});
}
Predicate& Predicate::Lt(std::string column, Value value) {
  return AddAtom({std::move(column), CompareOp::kLt, std::move(value), {}});
}
Predicate& Predicate::Le(std::string column, Value value) {
  return AddAtom({std::move(column), CompareOp::kLe, std::move(value), {}});
}
Predicate& Predicate::Gt(std::string column, Value value) {
  return AddAtom({std::move(column), CompareOp::kGt, std::move(value), {}});
}
Predicate& Predicate::Ge(std::string column, Value value) {
  return AddAtom({std::move(column), CompareOp::kGe, std::move(value), {}});
}
Predicate& Predicate::In(std::string column, std::vector<Value> values) {
  return AddAtom({std::move(column), CompareOp::kIn, Value(), std::move(values)});
}
Predicate& Predicate::Between(std::string column, int64_t lo, int64_t hi) {
  Ge(column, Value(lo));
  return Le(std::move(column), Value(hi));
}
Predicate& Predicate::AddAtom(Atom atom) {
  atoms_.push_back(std::move(atom));
  return *this;
}

std::vector<std::string> Predicate::Columns() const {
  std::vector<std::string> out;
  for (const Atom& a : atoms_) {
    if (std::find(out.begin(), out.end(), a.column) == out.end()) {
      out.push_back(a.column);
    }
  }
  return out;
}

Predicate Predicate::AndWith(const Predicate& other) const {
  Predicate out = *this;
  for (const Atom& a : other.atoms()) out.AddAtom(a);
  return out;
}

std::string Predicate::ToString() const {
  if (atoms_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += atoms_[i].ToString();
  }
  return out;
}

StatusOr<BoundPredicate> BoundPredicate::Bind(const Predicate& pred,
                                              const Table& table) {
  BoundPredicate bound;
  const Schema& schema = table.schema();
  for (const Atom& atom : pred.atoms()) {
    auto col = schema.IndexOf(atom.column);
    if (!col.has_value()) {
      return Status::InvalidArgument("unknown column in predicate: " +
                                     atom.column);
    }
    DataType type = schema.column(*col).type;
    bool is_ordering = atom.op == CompareOp::kLt || atom.op == CompareOp::kLe ||
                       atom.op == CompareOp::kGt || atom.op == CompareOp::kGe;
    if (type == DataType::kString && is_ordering) {
      return Status::InvalidArgument(
          "ordering comparison on string column " + atom.column);
    }
    BoundAtom ba;
    ba.col = *col;
    ba.op = atom.op;
    if (atom.op == CompareOp::kIn) {
      for (const Value& v : atom.values) {
        auto code = table.FindCode(*col, v);
        if (code.has_value() && *code != kNullCode) ba.rhs_set.push_back(*code);
      }
      std::sort(ba.rhs_set.begin(), ba.rhs_set.end());
      if (ba.rhs_set.empty()) bound.always_false_ = true;
    } else if (auto code = table.FindCode(*col, atom.value)) {
      ba.rhs = *code;
    } else if (atom.op == CompareOp::kEq || atom.op == CompareOp::kNe) {
      // Constant absent from the dictionary: `=` never matches, `!=`
      // matches every non-NULL cell. Binding both against kNullCode gives
      // exactly that, since AtomHolds rejects NULL cells first.
      ba.rhs = kNullCode;
      if (atom.op == CompareOp::kEq) bound.always_false_ = true;
    } else {
      return Status::InvalidArgument(
          "type mismatch for constant in atom " + atom.ToString());
    }
    bound.atoms_.push_back(std::move(ba));
  }
  return bound;
}

bool BoundPredicate::Matches(const Table& table, size_t row) const {
  if (always_false_) return false;
  for (const BoundAtom& a : atoms_) {
    if (!AtomHolds(a, table.GetCode(row, a.col))) return false;
  }
  return true;
}

void BoundPredicate::MatchesBatch(const Table& table,
                                  const std::vector<uint32_t>& rows,
                                  std::vector<uint8_t>* match) const {
  const size_t n = rows.size();
  match->assign(n, always_false_ ? 0 : 1);
  if (always_false_) return;
  uint8_t* m = match->data();
  for (const BoundAtom& a : atoms_) {
    const std::vector<int64_t>& col = table.ColumnCodes(a.col);
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
      if (m[i] != 0 && !AtomHolds(a, col[rows[i]])) m[i] = 0;
    }
  }
}

size_t BoundPredicate::CountMatches(const Table& table) const {
  size_t count = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (Matches(table, r)) ++count;
  }
  return count;
}

}  // namespace cextend
