#include "core/binning.h"

#include <algorithm>
#include <limits>

#include "relational/attr_set.h"
#include "util/logging.h"

namespace cextend {
namespace {

/// Interval index of `v` for cut list c0<c1<...<ck:
///   0 for v < c0, i+1 for c_i <= v < c_{i+1}, k+1 for v >= ck.
int64_t IntervalIndex(const std::vector<int64_t>& cuts, int64_t v) {
  return static_cast<int64_t>(
      std::upper_bound(cuts.begin(), cuts.end(), v) - cuts.begin());
}

}  // namespace

StatusOr<Binning> Binning::Create(
    const Table& table, const std::vector<std::string>& a_columns,
    const std::vector<CardinalityConstraint>& ccs) {
  Binning b;
  b.table_ = &table;
  std::vector<size_t> a_col_idx;
  for (const std::string& a : a_columns) {
    auto idx = table.schema().IndexOf(a);
    if (!idx.has_value())
      return Status::InvalidArgument("binning column not found: " + a);
    a_col_idx.push_back(*idx);
  }

  // Gather interval endpoints per integer attribute from the CCs' R1
  // conditions; CCs whose condition is not interval-representable on some
  // integer attribute become "irregular" and contribute match bits instead.
  std::map<std::string, std::vector<int64_t>> cut_builder;
  std::vector<const CardinalityConstraint*> irregular;
  for (const CardinalityConstraint& cc : ccs) {
    CEXTEND_ASSIGN_OR_RETURN(auto sets,
                             ComputeAttrSets(cc.r1_condition, table.schema()));
    bool cc_irregular = false;
    for (const auto& [attr, set] : sets) {
      auto col = table.schema().IndexOf(attr);
      if (!col.has_value())
        return Status::InvalidArgument("CC references unknown column " + attr);
      if (table.schema().column(*col).type != DataType::kInt64) continue;
      if (set.kind() == AttrSet::Kind::kInterval) {
        constexpr int64_t kLo = std::numeric_limits<int64_t>::min() + 1;
        constexpr int64_t kHi = std::numeric_limits<int64_t>::max() - 1;
        if (set.lo() > kLo) cut_builder[attr].push_back(set.lo());
        if (set.hi() < kHi) cut_builder[attr].push_back(set.hi() + 1);
      } else {
        cc_irregular = true;
      }
    }
    if (cc_irregular) irregular.push_back(&cc);
  }
  for (auto& [attr, cuts] : cut_builder) {
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  b.cuts_ = std::move(cut_builder);

  // Bind irregular CC conditions once for the match-bit refinement.
  std::vector<BoundPredicate> irregular_preds;
  for (const CardinalityConstraint* cc : irregular) {
    CEXTEND_ASSIGN_OR_RETURN(BoundPredicate p,
                             BoundPredicate::Bind(cc->r1_condition, table));
    irregular_preds.push_back(std::move(p));
  }

  // Per a-column: its codes, and for an intervalized column either a
  // code -> interval lookup table over the observed code range (when that
  // range is at most kMaxLookupRange codes) or the cut list's upper_bound.
  struct KeyColumn {
    const int64_t* codes;
    const std::vector<int64_t>* cuts;  // nullptr: the raw code is the key
    int64_t lookup_base = 0;
    std::vector<uint32_t> lookup;      // empty: upper_bound over *cuts
  };
  constexpr uint64_t kMaxLookupRange = uint64_t{1} << 20;
  const size_t num_rows = table.NumRows();
  std::vector<KeyColumn> key_columns;
  for (size_t i = 0; i < a_col_idx.size(); ++i) {
    const size_t col = a_col_idx[i];
    KeyColumn kc{table.ColumnCodes(col).data(), nullptr, 0, {}};
    const auto cuts = b.cuts_.find(a_columns[i]);
    if (cuts != b.cuts_.end() && !cuts->second.empty() &&
        table.schema().column(col).type == DataType::kInt64) {
      kc.cuts = &cuts->second;
      int64_t lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      for (size_t r = 0; r < num_rows; ++r) {
        if (kc.codes[r] == kNullCode) continue;
        lo = std::min(lo, kc.codes[r]);
        hi = std::max(hi, kc.codes[r]);
      }
      if (lo <= hi && static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) <
                          kMaxLookupRange) {
        // One merge-walk over codes and cuts: O(range + cuts).
        kc.lookup_base = lo;
        kc.lookup.resize(static_cast<size_t>(hi - lo) + 1);
        size_t interval = static_cast<size_t>(IntervalIndex(*kc.cuts, lo));
        for (size_t v = 0; v < kc.lookup.size(); ++v) {
          const int64_t code = lo + static_cast<int64_t>(v);
          while (interval < kc.cuts->size() && (*kc.cuts)[interval] <= code) {
            ++interval;
          }
          kc.lookup[v] = static_cast<uint32_t>(interval);
        }
      }
    }
    key_columns.push_back(std::move(kc));
  }

  // Assign rows to bins, numbered in first-row order.
  b.bins_ = InternRows(
      num_rows, a_columns.size() + irregular_preds.size(),
      [&](size_t r, int64_t* key) {
        for (size_t i = 0; i < key_columns.size(); ++i) {
          const KeyColumn& kc = key_columns[i];
          const int64_t code = kc.codes[r];
          if (kc.cuts == nullptr || code == kNullCode) {
            key[i] = code;
          } else if (!kc.lookup.empty()) {
            key[i] = kc.lookup[static_cast<size_t>(code - kc.lookup_base)];
          } else {
            key[i] = IntervalIndex(*kc.cuts, code);
          }
        }
        for (size_t i = 0; i < irregular_preds.size(); ++i) {
          key[a_columns.size() + i] =
              irregular_preds[i].Matches(table, r) ? 1 : 0;
        }
      });
  return b;
}

}  // namespace cextend
