// Shared mutable state for phase I: which V_join rows still need B values.
//
// Both phase-I algorithms (Hasse recursion and ILP) pull rows out of per-bin
// pools as they assign B values; the hybrid runs them back-to-back over the
// same state. Rows still pooled at the end are completed by the shared final
// fill (Algorithm 2 lines 14-17). Both algorithms and the final fill read
// one CcMatch per CC, built once per solve by MatchCcs from cached per-atom
// bitsets.

#ifndef CEXTEND_CORE_FILL_STATE_H_
#define CEXTEND_CORE_FILL_STATE_H_

#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "core/binning.h"
#include "core/join_view.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {

/// What phase I asks of one CC: the bins its R1 condition covers and the R2
/// combos its R2 condition covers, both ascending.
struct CcMatch {
  std::vector<size_t> bins;
  std::vector<size_t> combos;
};

/// Matches conditions against one representative row per class: the
/// representatives of a Binning, of a ComboIndex or of any RowClasses. A
/// condition is bound with BoundPredicate::Bind, so an unknown column or a
/// bad constant fails as it does everywhere else. Each distinct bound atom
/// (column, op, code, IN codes) is then swept once over the representatives'
/// codes into a cached bitset, and a condition's classes are the AND of its
/// atoms' bitsets. BoundPredicate::AtomHolds decides every cell, so the
/// result equals BoundPredicate::Matches on each representative.
class FootprintMatcher {
 public:
  /// Class id i is `table` row `rows[i]`. `table` must outlive the matcher.
  FootprintMatcher(const Table& table, std::vector<uint32_t> rows);

  /// Ids of the classes whose representative satisfies `condition`,
  /// ascending.
  StatusOr<std::vector<size_t>> Match(const Predicate& condition);

 private:
  using AtomKey = std::tuple<size_t, CompareOp, int64_t, std::vector<int64_t>>;

  const std::vector<uint64_t>& AtomBits(const BoundPredicate::BoundAtom& atom);

  const Table* table_;
  std::vector<uint32_t> rows_;  // representative row per class id
  size_t words_;
  std::map<size_t, std::vector<int64_t>> codes_;  // column -> codes at rows_
  std::map<AtomKey, std::vector<uint64_t>> atom_bits_;
};

/// One CcMatch per CC of `ccs`, in order. Fails when a condition does not
/// bind against the binned table or `r2` (the table `combos` indexes).
StatusOr<std::vector<CcMatch>> MatchCcs(
    const Binning& binning, const ComboIndex& combos, const Table& r2,
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
  void AssignFullCombo(uint32_t row, std::span<const int64_t> codes);

  /// Rows never assigned (still in pools), drained into one list.
  std::vector<uint32_t> DrainPools();

  size_t total_unassigned() const;

 private:
  Table* v_join_ = nullptr;
  const Binning* binning_ = nullptr;
  std::vector<size_t> b_cols_;
  std::vector<std::vector<uint32_t>> pools_;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_FILL_STATE_H_
