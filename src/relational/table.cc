#include "relational/table.h"

#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {

Table::Table(Schema schema) : Table(std::move(schema), {}) {}

Table::Table(Schema schema, std::vector<std::shared_ptr<Dictionary>> dicts)
    : schema_(std::move(schema)), dicts_(std::move(dicts)) {
  dicts_.resize(schema_.NumColumns());
  columns_.resize(schema_.NumColumns());
  for (size_t i = 0; i < schema_.NumColumns(); ++i) {
    if (schema_.column(i).type == DataType::kString && dicts_[i] == nullptr) {
      dicts_[i] = std::make_shared<Dictionary>();
    }
    if (schema_.column(i).type == DataType::kInt64) {
      dicts_[i] = nullptr;
    }
  }
}

Table::Table(Schema schema, std::vector<std::shared_ptr<Dictionary>> dicts,
             std::vector<std::vector<int64_t>> columns)
    : Table(std::move(schema), std::move(dicts)) {
  CEXTEND_CHECK(columns.size() == columns_.size())
      << columns.size() << " columns for a schema of " << columns_.size();
  num_rows_ = columns.empty() ? 0 : columns[0].size();
  for (const std::vector<int64_t>& column : columns) {
    CEXTEND_CHECK(column.size() == num_rows_)
        << "columns of " << num_rows_ << " and " << column.size() << " rows";
  }
  columns_ = std::move(columns);
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu does not match schema arity %zu",
                  values.size(), schema_.NumColumns()));
  }
  std::vector<int64_t> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    CEXTEND_ASSIGN_OR_RETURN(codes[i], EncodeValue(i, values[i]));
  }
  AppendRowCodes(codes);
  return Status::Ok();
}

void Table::AppendRowCodes(const std::vector<int64_t>& codes) {
  CEXTEND_CHECK(codes.size() == schema_.NumColumns());
  for (size_t i = 0; i < codes.size(); ++i) columns_[i].push_back(codes[i]);
  ++num_rows_;
}

Value Table::GetValue(size_t row, size_t col) const {
  return DecodeCode(col, columns_[col][row]);
}

Status Table::SetValue(size_t row, size_t col, const Value& value) {
  CEXTEND_ASSIGN_OR_RETURN(int64_t code, EncodeValue(col, value));
  SetCode(row, col, code);
  return Status::Ok();
}

StatusOr<int64_t> Table::EncodeValue(size_t col, const Value& value) {
  if (value.is_null()) return kNullCode;
  const ColumnSpec& spec = schema_.column(col);
  switch (spec.type) {
    case DataType::kInt64:
      if (!value.is_int()) {
        return Status::InvalidArgument(
            StrFormat("column %s expects INT64, got %s", spec.name.c_str(),
                      value.ToString().c_str()));
      }
      return value.AsInt();
    case DataType::kString:
      if (!value.is_string()) {
        return Status::InvalidArgument(
            StrFormat("column %s expects STRING, got %s", spec.name.c_str(),
                      value.ToString().c_str()));
      }
      return dicts_[col]->Intern(value.AsString());
  }
  return Status::Internal("unreachable");
}

std::optional<int64_t> Table::FindCode(size_t col, const Value& value) const {
  if (value.is_null()) return kNullCode;
  const ColumnSpec& spec = schema_.column(col);
  if (spec.type == DataType::kInt64) {
    if (!value.is_int()) return std::nullopt;
    return value.AsInt();
  }
  if (!value.is_string()) return std::nullopt;
  return dicts_[col]->Find(value.AsString());
}

Value Table::DecodeCode(size_t col, int64_t code) const {
  if (code == kNullCode) return Value::Null();
  if (schema_.column(col).type == DataType::kInt64) return Value(code);
  return Value(dicts_[col]->Get(code));
}

Table Table::Clone() const {
  Table copy(schema_, dicts_);
  copy.columns_ = columns_;
  copy.num_rows_ = num_rows_;
  return copy;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << "  (" << num_rows_ << " rows)\n";
  size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < NumColumns(); ++c) {
      if (c > 0) os << " | ";
      os << GetValue(r, c).ToString();
    }
    os << "\n";
  }
  if (shown < num_rows_) os << "... (" << (num_rows_ - shown) << " more)\n";
  return os.str();
}

}  // namespace cextend
