// Shared mutable state for phase I: which V_join rows still need B values.
//
// Both phase-I algorithms (Hasse recursion and ILP) pull rows out of per-bin
// pools as they assign B values; the hybrid runs them back-to-back over the
// same state. Rows assigned only a subset of the B columns are tracked in
// `partial_rows` and completed by the shared final fill (Algorithm 2 lines
// 14-17). Both algorithms and the final fill read one CcMatch per CC,
// built once per solve.

#ifndef CEXTEND_CORE_FILL_STATE_H_
#define CEXTEND_CORE_FILL_STATE_H_

#include <cstdint>
#include <vector>

#include "core/binning.h"
#include "core/join_view.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {

/// What phase I asks of one CC: the bins its R1 condition covers and the R2
/// combos its R2 condition covers, both ascending.
struct CcMatch {
  std::vector<size_t> bins;
  std::vector<size_t> combos;
};

/// One CcMatch per CC of `ccs`, in order. Fails when a condition does not
/// bind against the binned table or R2.
StatusOr<std::vector<CcMatch>> MatchCcs(
    const Binning& binning, const ComboIndex& combos,
    const std::vector<CardinalityConstraint>& ccs);

class FillState {
 public:
  /// `binning` must have been created over `v_join`'s rows.
  static StatusOr<FillState> Create(Table* v_join, const PairSchema& names,
                                    const Binning* binning);

  /// Resolves the B-column indices of `names` in `schema` (the columns every
  /// phase writes its combos into). Shared by the fill state, the synthesis
  /// planner, and the shard executor so a renamed or missing B column fails
  /// identically everywhere.
  static StatusOr<std::vector<size_t>> ResolveBColumns(const Schema& schema,
                                                       const PairSchema& names);

  Table& v_join() { return *v_join_; }
  const Binning& binning() const { return *binning_; }
  const std::vector<size_t>& b_cols() const { return b_cols_; }

  /// Unassigned rows remaining in `bin` (mutable: algorithms pop from here).
  std::vector<uint32_t>& pool(size_t bin) { return pools_[bin]; }
  const std::vector<uint32_t>& pool(size_t bin) const { return pools_[bin]; }
  size_t num_bins() const { return pools_.size(); }

  /// Pops up to `k` rows off the back of `bin`'s pool.
  std::vector<uint32_t> PopRows(size_t bin, size_t k);

  /// Writes full combo `codes` (one per B column) into `row`.
  void AssignFullCombo(uint32_t row, const std::vector<int64_t>& codes);

  /// Writes a partial assignment: `cells` = (v_join column index, code).
  /// The row is recorded in partial_rows() for the final fill.
  void AssignPartial(uint32_t row,
                     const std::vector<std::pair<size_t, int64_t>>& cells);

  const std::vector<uint32_t>& partial_rows() const { return partial_rows_; }

  /// Rows never assigned (still in pools), drained into one list.
  std::vector<uint32_t> DrainPools();

  size_t total_unassigned() const;

 private:
  Table* v_join_ = nullptr;
  const Binning* binning_ = nullptr;
  std::vector<size_t> b_cols_;
  std::vector<std::vector<uint32_t>> pools_;
  std::vector<uint32_t> partial_rows_;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_FILL_STATE_H_
