// Reference oracles for the code-tuple numbering that Binning::Create,
// ComboIndex::Build and PreparePlan do through InternRows
// (util/code_interner.h): the std::map row loops they replaced, one heap
// vector per row. They share no code with the interner, so the production
// ids, representatives, FillState pools and candidate lists must match them
// exactly — and with them every output ordered by id.

#ifndef CEXTEND_TESTS_CORE_INTERNING_ORACLE_H_
#define CEXTEND_TESTS_CORE_INTERNING_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/cardinality_constraint.h"
#include "core/binning.h"
#include "core/fill_state.h"
#include "core/join_view.h"
#include "core/plan.h"
#include "relational/attr_set.h"
#include "relational/predicate.h"
#include "relational/table.h"
#include "util/logging.h"

namespace cextend {
namespace interning_oracle {

/// Binning::Create's bins: cuts per intervalized column from the CCs' R1
/// interval endpoints, a match bit per irregular CC, and bins numbered in
/// first-row order through a std::map over per-row key vectors.
struct Bins {
  std::map<std::string, std::vector<int64_t>> cuts;
  std::vector<uint32_t> bin_of_row;
  std::vector<std::vector<uint32_t>> rows;
};

inline Bins BinRows(const Table& table,
                    const std::vector<std::string>& a_columns,
                    const std::vector<CardinalityConstraint>& ccs) {
  const Schema& schema = table.schema();
  Bins out;
  std::vector<const CardinalityConstraint*> irregular;
  for (const CardinalityConstraint& cc : ccs) {
    auto sets = ComputeAttrSets(cc.r1_condition, schema);
    CEXTEND_CHECK(sets.ok()) << sets.status().ToString();
    bool cc_irregular = false;
    for (const auto& [attr, set] : *sets) {
      if (schema.column(schema.IndexOrDie(attr)).type != DataType::kInt64) {
        continue;
      }
      if (set.kind() == AttrSet::Kind::kInterval) {
        constexpr int64_t kLo = std::numeric_limits<int64_t>::min() + 1;
        constexpr int64_t kHi = std::numeric_limits<int64_t>::max() - 1;
        if (set.lo() > kLo) out.cuts[attr].push_back(set.lo());
        if (set.hi() < kHi) out.cuts[attr].push_back(set.hi() + 1);
      } else {
        cc_irregular = true;
      }
    }
    if (cc_irregular) irregular.push_back(&cc);
  }
  for (auto& [attr, cuts] : out.cuts) {
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  std::vector<BoundPredicate> preds;
  for (const CardinalityConstraint* cc : irregular) {
    auto p = BoundPredicate::Bind(cc->r1_condition, table);
    CEXTEND_CHECK(p.ok());
    preds.push_back(std::move(p).value());
  }
  std::map<std::vector<int64_t>, uint32_t> key_to_bin;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::vector<int64_t> key;
    for (const std::string& a : a_columns) {
      const int64_t code = table.GetCode(r, schema.IndexOrDie(a));
      auto cuts = out.cuts.find(a);
      if (code == kNullCode || cuts == out.cuts.end()) {
        key.push_back(code);
      } else {
        key.push_back(std::upper_bound(cuts->second.begin(),
                                       cuts->second.end(), code) -
                      cuts->second.begin());
      }
    }
    for (const BoundPredicate& p : preds) key.push_back(p.Matches(table, r));
    auto [it, inserted] =
        key_to_bin.emplace(key, static_cast<uint32_t>(out.rows.size()));
    if (inserted) out.rows.emplace_back();
    out.bin_of_row.push_back(it->second);
    out.rows[it->second].push_back(static_cast<uint32_t>(r));
  }
  return out;
}

/// Checks `binning` (created over `table`) against the oracle: cuts, the
/// bin of every row, each bin's first row, and the FillState pools built
/// from it, which must list each bin's rows in row order.
inline void ExpectBinningMatches(Table& table, const Binning& binning,
                                 const Bins& oracle, const char* what) {
  EXPECT_EQ(binning.cuts(), oracle.cuts) << what;
  ASSERT_EQ(binning.num_bins(), oracle.rows.size()) << what;
  ASSERT_EQ(binning.num_rows(), oracle.bin_of_row.size()) << what;
  for (size_t r = 0; r < oracle.bin_of_row.size(); ++r) {
    ASSERT_EQ(binning.bin_of_row(r), oracle.bin_of_row[r]) << what << " row "
                                                           << r;
  }
  auto state = FillState::Create(&table, PairSchema{}, &binning);
  ASSERT_TRUE(state.ok()) << what << ": " << state.status().ToString();
  for (size_t b = 0; b < oracle.rows.size(); ++b) {
    ASSERT_EQ(binning.representatives()[b], oracle.rows[b].front())
        << what << " bin " << b;
    ASSERT_EQ(state->pool(b), oracle.rows[b]) << what << " bin " << b;
  }
}

/// ComboIndex::Build's combos: R2's distinct B-code vectors in first-row
/// order through a std::map, each with its ascending K2 values.
struct Combos {
  std::vector<std::vector<int64_t>> codes;
  std::vector<std::vector<int64_t>> keys;
  std::map<std::vector<int64_t>, size_t> lookup;

  std::optional<size_t> Find(const std::vector<int64_t>& combo) const {
    auto it = lookup.find(combo);
    if (it == lookup.end()) return std::nullopt;
    return it->second;
  }
};

inline Combos IndexCombos(const Table& r2, const PairSchema& names) {
  const size_t key_col = r2.schema().IndexOrDie(names.key2);
  Combos out;
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    std::vector<int64_t> combo;
    for (const std::string& b : names.r2_attrs) {
      combo.push_back(r2.GetCode(r, r2.schema().IndexOrDie(b)));
    }
    auto [it, inserted] = out.lookup.emplace(combo, out.codes.size());
    if (inserted) {
      out.codes.push_back(combo);
      out.keys.emplace_back();
    }
    out.keys[it->second].push_back(r2.GetCode(r, key_col));
  }
  for (auto& k : out.keys) std::sort(k.begin(), k.end());
  return out;
}

inline void ExpectComboIndexMatches(const ComboIndex& index,
                                    const Combos& oracle, const char* what) {
  ASSERT_EQ(index.num_combos(), oracle.codes.size()) << what;
  for (size_t i = 0; i < oracle.codes.size(); ++i) {
    const std::span<const int64_t> codes = index.combo_codes(i);
    EXPECT_EQ(std::vector<int64_t>(codes.begin(), codes.end()), oracle.codes[i])
        << what << " combo " << i;
    EXPECT_EQ(index.keys(i), oracle.keys[i]) << what << " combo " << i;
    EXPECT_EQ(index.Find(oracle.codes[i]), std::optional<size_t>(i)) << what;
    // Every one-code perturbation is absent unless the oracle has it too.
    std::vector<int64_t> probe = oracle.codes[i];
    for (size_t c = 0; c < probe.size(); ++c) {
      probe[c] ^= 0x5A5A5;
      EXPECT_EQ(index.Find(probe), oracle.Find(probe)) << what;
      probe[c] ^= 0x5A5A5;
    }
    // Wrong arity never matches, whatever the codes.
    std::vector<int64_t> longer = oracle.codes[i];
    longer.push_back(0);
    EXPECT_FALSE(index.Find(longer).has_value()) << what;
    if (!probe.empty()) {
      probe.pop_back();
      EXPECT_FALSE(index.Find(probe).has_value()) << what;
    }
  }
}

/// PreparePlan's partitioning and repair grouping: valid rows grouped by
/// combo *codes* through a std::map, candidates by a scan over R2, the
/// stable size-descending worklist, repair groups by the oracle combo id,
/// and each group's partition found by its codes.
struct Prepared {
  std::vector<PlanPartition> partitions;
  std::vector<size_t> worklist;
  std::map<size_t, std::vector<uint32_t>> repair_groups;
  std::vector<uint8_t> repair_flags;
};

inline Prepared PrepareReference(const SynthesisPlan& plan, const Table& r2,
                                 const PairSchema& names) {
  Prepared out;
  std::vector<uint8_t> is_invalid(plan.num_rows, 0);
  for (uint32_t r : plan.invalid_rows) is_invalid[r] = 1;
  std::map<std::vector<int64_t>, size_t> partition_index;
  for (size_t r = 0; r < plan.num_rows; ++r) {
    if (is_invalid[r]) continue;
    const std::vector<int64_t>& combo = plan.combo_table[plan.row_combo[r]];
    auto [it, inserted] =
        partition_index.emplace(combo, out.partitions.size());
    if (inserted) out.partitions.push_back(PlanPartition{combo, {}, {}});
    out.partitions[it->second].rows.push_back(static_cast<uint32_t>(r));
  }
  const size_t key_col = r2.schema().IndexOrDie(names.key2);
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    std::vector<int64_t> combo;
    for (const std::string& b : names.r2_attrs) {
      combo.push_back(r2.GetCode(r, r2.schema().IndexOrDie(b)));
    }
    auto it = partition_index.find(combo);
    if (it != partition_index.end()) {
      out.partitions[it->second].candidates.push_back(r2.GetCode(r, key_col));
    }
  }
  for (PlanPartition& p : out.partitions) {
    std::sort(p.candidates.begin(), p.candidates.end());
  }
  for (size_t i = 0; i < out.partitions.size(); ++i) out.worklist.push_back(i);
  std::stable_sort(out.worklist.begin(), out.worklist.end(),
                   [&](size_t a, size_t b) {
                     return out.partitions[a].rows.size() >
                            out.partitions[b].rows.size();
                   });
  const Combos combos = IndexCombos(r2, names);
  out.repair_flags.assign(out.partitions.size(), 0);
  for (uint32_t row : plan.invalid_rows) {
    const std::vector<int64_t>& combo = plan.combo_table[plan.row_combo[row]];
    std::optional<size_t> id = combos.Find(combo);
    CEXTEND_CHECK(id.has_value()) << "repair combo not in R2";
    out.repair_groups[*id].push_back(row);
    auto it = partition_index.find(combo);
    if (it != partition_index.end()) out.repair_flags[it->second] = 1;
  }
  return out;
}

inline void ExpectPreparedMatches(const PreparedPlan& prepared,
                                  const Prepared& oracle, const char* what) {
  ASSERT_EQ(prepared.partitions.size(), oracle.partitions.size()) << what;
  for (size_t p = 0; p < oracle.partitions.size(); ++p) {
    EXPECT_EQ(prepared.partitions[p].combo, oracle.partitions[p].combo)
        << what << " partition " << p;
    EXPECT_EQ(prepared.partitions[p].rows, oracle.partitions[p].rows)
        << what << " partition " << p;
    EXPECT_EQ(prepared.partitions[p].candidates,
              oracle.partitions[p].candidates)
        << what << " partition " << p;
  }
  EXPECT_EQ(prepared.worklist, oracle.worklist) << what;
  EXPECT_EQ(prepared.repair_groups, oracle.repair_groups) << what;
  EXPECT_EQ(RepairPartitionFlags(prepared), oracle.repair_flags) << what;
}

}  // namespace interning_oracle
}  // namespace cextend

#endif  // CEXTEND_TESTS_CORE_INTERNING_ORACLE_H_
