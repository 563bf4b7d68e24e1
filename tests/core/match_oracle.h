// Reference CC matching for phase I: which bins an R1 condition covers and
// which R2 combos an R2 condition covers, decided by BoundPredicate::Matches
// on each bin's and each combo's representative row. The library answers
// the same question with MatchCcs (core/fill_state.h), from cached per-atom
// bitsets; tests check it, and the stages that read its lists, against these.

#ifndef CEXTEND_TESTS_CORE_MATCH_ORACLE_H_
#define CEXTEND_TESTS_CORE_MATCH_ORACLE_H_

#include <cstddef>
#include <vector>

#include "core/binning.h"
#include "core/join_view.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {
namespace match_oracle {

/// True when `bin`'s rows satisfy `pred` (bound against the binned table).
/// Exact for conditions drawn from the CC set used at binning (they are
/// unions of bins).
inline bool BinMatches(const Binning& binning, size_t bin,
                       const BoundPredicate& pred) {
  return pred.Matches(binning.table(), binning.representatives()[bin]);
}

/// Ids of the bins matching `r1_condition`, ascending.
inline StatusOr<std::vector<size_t>> MatchingBins(
    const Binning& binning, const Predicate& r1_condition) {
  CEXTEND_ASSIGN_OR_RETURN(BoundPredicate pred,
                           BoundPredicate::Bind(r1_condition, binning.table()));
  std::vector<size_t> out;
  for (size_t bin = 0; bin < binning.num_bins(); ++bin) {
    if (BinMatches(binning, bin, pred)) out.push_back(bin);
  }
  return out;
}

/// Ids of the combos of `combos` (built over `r2`) whose values satisfy
/// `r2_condition`, ascending.
inline StatusOr<std::vector<size_t>> MatchingCombos(
    const ComboIndex& combos, const Table& r2, const Predicate& r2_condition) {
  CEXTEND_ASSIGN_OR_RETURN(BoundPredicate pred,
                           BoundPredicate::Bind(r2_condition, r2));
  std::vector<size_t> out;
  for (size_t i = 0; i < combos.num_combos(); ++i) {
    if (pred.Matches(r2, combos.representatives()[i])) out.push_back(i);
  }
  return out;
}

}  // namespace match_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CORE_MATCH_ORACLE_H_
