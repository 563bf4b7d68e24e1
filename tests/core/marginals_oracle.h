// All-way marginals over R1's non-key attributes (Section 4.1), rendered as
// explicit CCs for the binning tests.
//
// The marginal of each bin — the number of R1 tuples of that tuple type —
// carries over to V_join unchanged (foreign-key dependence makes the join
// one-to-one), so the paper augments S_CC with these counts to force the ILP
// to account for every tuple. The library's ILP encodes them as hard
// equality rows straight from the bin counts; this helper reconstructs each
// bin's R1 condition so a test can check the two descriptions agree.

#ifndef CEXTEND_TESTS_CORE_MARGINALS_ORACLE_H_
#define CEXTEND_TESTS_CORE_MARGINALS_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "core/binning.h"
#include "relational/predicate.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace cextend {
namespace marginals_oracle {

/// A conjunctive R1 condition describing bin `bin` of a binning over
/// `a_columns`: equality on categorical columns, Between on the interval
/// that holds the bin on intervalized ones. NULL cells add no atom.
inline StatusOr<Predicate> BinCondition(
    const Binning& binning, const std::vector<std::string>& a_columns,
    size_t bin) {
  if (bin >= binning.num_bins()) {
    return Status::InvalidArgument("bin out of range");
  }
  const Table& table = binning.table();
  const uint32_t rep = binning.representatives()[bin];
  Predicate pred;
  for (const std::string& name : a_columns) {
    const size_t col = table.schema().IndexOrDie(name);
    const int64_t code = table.GetCode(rep, col);
    if (code == kNullCode) continue;
    const auto cuts = binning.cuts().find(name);
    if (cuts == binning.cuts().end() || cuts->second.empty()) {
      pred.Eq(name, table.GetValue(rep, col));
      continue;
    }
    // Cuts c0 < c1 < ... define intervals (-inf, c0-1], [c0, c1-1], ...,
    // [ck, inf).
    const std::vector<int64_t>& c = cuts->second;
    const size_t idx = static_cast<size_t>(
        std::upper_bound(c.begin(), c.end(), code) - c.begin());
    const int64_t lo =
        idx == 0 ? std::numeric_limits<int64_t>::min() + 1 : c[idx - 1];
    const int64_t hi =
        idx == c.size() ? std::numeric_limits<int64_t>::max() - 1
                        : c[idx] - 1;
    pred.Between(name, lo, hi);
  }
  return pred;
}

/// One CC per bin: the bin's reconstructed R1 condition, TRUE R2 condition,
/// target = the number of rows in the bin.
inline StatusOr<std::vector<CardinalityConstraint>> ComputeAllWayMarginals(
    const Binning& binning, const std::vector<std::string>& a_columns) {
  std::vector<int64_t> counts(binning.num_bins(), 0);
  for (size_t r = 0; r < binning.num_rows(); ++r) {
    ++counts[binning.bin_of_row(r)];
  }
  std::vector<CardinalityConstraint> out;
  out.reserve(binning.num_bins());
  for (size_t bin = 0; bin < binning.num_bins(); ++bin) {
    CardinalityConstraint cc;
    cc.name = StrFormat("marginal_bin%zu", bin);
    CEXTEND_ASSIGN_OR_RETURN(cc.r1_condition,
                             BinCondition(binning, a_columns, bin));
    cc.r2_condition = Predicate::True();
    cc.target = counts[bin];
    out.push_back(std::move(cc));
  }
  return out;
}

}  // namespace marginals_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CORE_MARGINALS_ORACLE_H_
