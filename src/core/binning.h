// Intervalization and binning of R1 tuple types (Section 4.1).
//
// Intervalization splits each integer attribute's domain at the endpoints of
// the intervals mentioned by the CCs, so every CC's R1-side selection becomes
// a union of *bins*. A bin is one realized combination of
//   (interval index per intervalized attribute, raw code otherwise),
// optionally refined by per-CC match bits when a CC's condition is not
// interval-representable (e.g. != on an integer) — this keeps the invariant
// "every CC selection is a union of bins" exact in all cases.
// Bin sizes are exactly the paper's all-way marginals over A1..Ap; the ILP
// reads them as the sizes of FillState's per-bin pools, and
// tests/core/marginals_oracle.h renders them as explicit CCs with one
// reconstructed R1 condition per bin.

#ifndef CEXTEND_CORE_BINNING_H_
#define CEXTEND_CORE_BINNING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "util/code_interner.h"
#include "util/statusor.h"

namespace cextend {

class Binning {
 public:
  /// Bins the rows of `table` (R1 or the join view) over `a_columns`, using
  /// the R1-side conditions of `ccs` for intervalization.
  static StatusOr<Binning> Create(const Table& table,
                                  const std::vector<std::string>& a_columns,
                                  const std::vector<CardinalityConstraint>& ccs);

  /// Bins are numbered in first-row order.
  size_t num_bins() const { return bins_.size(); }
  size_t num_rows() const { return bins_.of_row.size(); }

  uint32_t bin_of_row(size_t row) const { return bins_.of_row[row]; }
  /// The first row of each bin. All rows of a bin agree on every CC's R1
  /// condition drawn from the CC set used at creation (each is a union of
  /// bins), so a CC covers a bin exactly when it holds on this row (MatchCcs
  /// in core/fill_state.h).
  const std::vector<uint32_t>& representatives() const {
    return bins_.representatives;
  }

  /// Interval cut points per intervalized column (for tests/inspection).
  /// Cuts c0 < c1 < ... define intervals (-inf,c0-1], [c0,c1-1], ..., [ck,inf).
  const std::map<std::string, std::vector<int64_t>>& cuts() const {
    return cuts_;
  }

  const Table& table() const { return *table_; }

 private:
  const Table* table_ = nullptr;
  // Cut list per intervalized column; other columns key bins by raw code.
  std::map<std::string, std::vector<int64_t>> cuts_;
  RowClasses bins_;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_BINNING_H_
