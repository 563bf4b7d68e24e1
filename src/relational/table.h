// Columnar, dictionary-encoded in-memory table.
//
// Every cell is stored as an int64_t code:
//   * INT64 columns store the value itself,
//   * STRING columns store a dictionary code,
//   * NULL is the reserved sentinel `kNullCode`.
// String columns can share their Dictionary with columns of other tables so
// codes stay comparable across a join (e.g. R2.Area and V_join.Area).

#ifndef CEXTEND_RELATIONAL_TABLE_H_
#define CEXTEND_RELATIONAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/dictionary.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/status.h"
#include "util/statusor.h"

namespace cextend {

class Table {
 public:
  /// Creates an empty table with fresh dictionaries for string columns.
  explicit Table(Schema schema);

  /// Creates an empty table where string column `i` uses `dicts[i]` (entries
  /// may be null for INT64 columns; a fresh dictionary is created when a
  /// STRING column has no entry).
  Table(Schema schema, std::vector<std::shared_ptr<Dictionary>> dicts);

  /// Creates a table from whole columns: `columns[i]` holds column i's codes
  /// (STRING codes index `dicts[i]`, as above). Every column must hold the
  /// same number of rows; the codes are not checked further.
  Table(Schema schema, std::vector<std::shared_ptr<Dictionary>> dicts,
        std::vector<std::vector<int64_t>> columns);

  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return schema_.NumColumns(); }

  /// Appends a row of typed values. Fails on arity or type mismatch.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends a row given raw codes (caller guarantees code validity).
  void AppendRowCodes(const std::vector<int64_t>& codes);

  /// Cell accessors.
  int64_t GetCode(size_t row, size_t col) const {
    return columns_[col][row];
  }
  void SetCode(size_t row, size_t col, int64_t code) {
    columns_[col][row] = code;
  }
  bool IsNull(size_t row, size_t col) const {
    return columns_[col][row] == kNullCode;
  }
  Value GetValue(size_t row, size_t col) const;
  Status SetValue(size_t row, size_t col, const Value& value);

  /// Raw column data (codes), for scan-heavy algorithms.
  const std::vector<int64_t>& ColumnCodes(size_t col) const {
    return columns_[col];
  }

  /// Encodes `value` for column `col`, interning strings if necessary.
  StatusOr<int64_t> EncodeValue(size_t col, const Value& value);

  /// Encodes `value` for column `col` without interning. Returns nullopt when
  /// a string value is not in the dictionary (i.e. it matches no row).
  std::optional<int64_t> FindCode(size_t col, const Value& value) const;

  /// Decodes `code` in the context of column `col`.
  Value DecodeCode(size_t col, int64_t code) const;

  const std::shared_ptr<Dictionary>& dictionary(size_t col) const {
    return dicts_[col];
  }

  /// Returns a new empty table with the same schema and shared dictionaries.
  Table CloneEmpty() const { return Table(schema_, dicts_); }

  /// Deep-copies rows and schema; dictionaries stay shared.
  Table Clone() const;

  /// Renders at most `max_rows` rows for debugging.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<std::shared_ptr<Dictionary>> dicts_;  // null for INT64 columns
  std::vector<std::vector<int64_t>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace cextend

#endif  // CEXTEND_RELATIONAL_TABLE_H_
