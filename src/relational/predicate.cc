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
      if (ba.rhs_set.empty()) {
        bound.always_false_ = true;
        return bound;
      }
    } else {
      auto code = table.FindCode(*col, atom.value);
      if (!code.has_value()) {
        // Constant absent from dictionary: Eq can never match; Ne always
        // matches non-null cells, which we approximate by dropping the atom
        // (NULL cells are excluded by a synthetic Ne-null atom).
        if (atom.op == CompareOp::kEq) {
          bound.always_false_ = true;
          return bound;
        }
        if (atom.op == CompareOp::kNe) {
          ba.op = CompareOp::kNe;
          ba.rhs = kNullCode;  // "cell != NULL" — matches all non-null cells
          bound.atoms_.push_back(ba);
          continue;
        }
        return Status::InvalidArgument(
            "type mismatch for constant in atom " + atom.ToString());
      }
      ba.rhs = *code;
    }
    bound.atoms_.push_back(ba);
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

size_t BoundPredicate::CountMatches(const Table& table) const {
  size_t count = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (Matches(table, r)) ++count;
  }
  return count;
}

std::vector<uint32_t> BoundPredicate::Filter(const Table& table) const {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (Matches(table, r)) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

}  // namespace cextend
