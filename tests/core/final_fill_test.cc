// The shared final fill (CompleteLeftoverRows) against a per-row reference:
// same B codes in every join-view row, same invalid rows, same counters, on
// inputs that exercise the DC-aware clique-capacity ledger — census S_all_DC,
// a DC whose cross atom lets a row conflict with itself, and combos with so
// few keys that every candidate saturates.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/denial_constraint.h"
#include "core/match_oracle.h"
#include "core/phase1_hasse.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "relational/attr_set.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::ExpectTablesEqual;

/// Reference kAvoidCcs fill: every leftover row is classified against every
/// binary DC on its own, and every per-bin lookup goes through a hash map.
/// Kept deliberately naive; the production fill must match it exactly.
StatusOr<std::vector<uint32_t>> ReferenceCompleteLeftoverRows(
    FillState& state, const ComboIndex& combos, const Table& r2,
    const std::vector<CardinalityConstraint>& avoid_ccs,
    const std::vector<DenialConstraint>& dcs, FinalFillStats* stats) {
  std::vector<uint32_t> invalid;
  std::vector<uint32_t> leftovers = state.DrainPools();
  if (leftovers.empty()) return invalid;

  const Binning& binning = state.binning();
  const Table& v_join = state.v_join();
  size_t num_ccs = avoid_ccs.size();
  std::vector<std::vector<uint8_t>> bin_match(
      num_ccs, std::vector<uint8_t>(binning.num_bins(), 0));
  std::vector<std::vector<uint8_t>> combo_match(
      num_ccs, std::vector<uint8_t>(combos.num_combos(), 0));
  for (size_t c = 0; c < num_ccs; ++c) {
    CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> bins,
                             match_oracle::MatchingBins(
                                 binning, avoid_ccs[c].r1_condition));
    for (size_t b : bins) bin_match[c][b] = 1;
    CEXTEND_ASSIGN_OR_RETURN(
        std::vector<size_t> cs,
        match_oracle::MatchingCombos(combos, r2, avoid_ccs[c].r2_condition));
    for (size_t i : cs) combo_match[c][i] = 1;
  }

  // Per B column, the smallest active-domain value no avoid-CC uses.
  std::optional<std::vector<int64_t>> synthesized;
  {
    size_t q = state.b_cols().size();
    std::vector<std::map<std::string, AttrSet>> cc_sets;
    bool sets_ok = true;
    for (size_t c = 0; c < num_ccs; ++c) {
      auto sets = ComputeAttrSets(avoid_ccs[c].r2_condition, v_join.schema());
      if (!sets.ok()) {
        sets_ok = false;
        break;
      }
      cc_sets.push_back(std::move(sets).value());
    }
    std::vector<int64_t> combo(q, kNullCode);
    bool all_columns_ok = sets_ok && q > 0;
    for (size_t col = 0; col < q && all_columns_ok; ++col) {
      size_t vcol = state.b_cols()[col];
      const std::string& col_name = v_join.schema().column(vcol).name;
      bool is_string = v_join.schema().column(vcol).type == DataType::kString;
      std::vector<int64_t> domain;
      for (size_t i = 0; i < combos.num_combos(); ++i)
        domain.push_back(combos.combo_codes(i)[col]);
      std::sort(domain.begin(), domain.end());
      domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
      int64_t chosen = kNullCode;
      for (int64_t v : domain) {
        bool used = false;
        for (size_t c = 0; c < num_ccs && !used; ++c) {
          auto it = cc_sets[c].find(col_name);
          if (it == cc_sets[c].end()) continue;
          used = is_string ? it->second.ContainsString(
                                 v_join.DecodeCode(vcol, v).AsString())
                           : it->second.ContainsInt(v);
        }
        if (!used) {
          chosen = v;
          break;
        }
      }
      if (chosen == kNullCode) {
        all_columns_ok = false;
      } else {
        combo[col] = chosen;
      }
    }
    if (all_columns_ok) synthesized = combo;
  }

  std::unordered_map<size_t, std::vector<size_t>> bin_free_combos;
  auto free_combos_for_bin = [&](size_t bin) -> const std::vector<size_t>& {
    auto it = bin_free_combos.find(bin);
    if (it != bin_free_combos.end()) return it->second;
    std::vector<size_t> free;
    for (size_t i = 0; i < combos.num_combos(); ++i) {
      bool bad = false;
      for (size_t c = 0; c < num_ccs && !bad; ++c)
        bad = bin_match[c][bin] != 0 && combo_match[c][i] != 0;
      if (!bad) free.push_back(i);
    }
    free = combos.ExpandByKeyCount(free);
    return bin_free_combos.emplace(bin, std::move(free)).first->second;
  };
  std::unordered_map<size_t, size_t> bin_cursor;
  auto cursor_for_bin = [&](size_t bin) -> size_t& {
    return bin_cursor.emplace(bin, bin * 7919).first->second;
  };

  std::vector<BoundDenialConstraint> clique_dcs;
  for (const DenialConstraint& dc : dcs) {
    if (dc.arity() != 2) continue;
    auto bound = BoundDenialConstraint::Bind(dc, v_join);
    if (bound.ok()) clique_dcs.push_back(std::move(bound).value());
  }
  auto row_classes = [&](uint32_t row) {
    std::vector<size_t> classes;
    for (size_t d = 0; d < clique_dcs.size(); ++d) {
      const BoundDenialConstraint& dc = clique_dcs[d];
      if (dc.SideMatches(v_join, row, 0) && dc.SideMatches(v_join, row, 1) &&
          dc.CrossAtomsHold(v_join, {row, row})) {
        classes.push_back(d);
      }
    }
    return classes;
  };
  std::vector<std::vector<int64_t>> class_load(
      clique_dcs.size(), std::vector<int64_t>(combos.num_combos(), 0));
  std::unordered_set<uint32_t> is_leftover(leftovers.begin(), leftovers.end());
  for (size_t r = 0; r < v_join.NumRows(); ++r) {
    if (is_leftover.contains(static_cast<uint32_t>(r))) continue;
    std::vector<int64_t> codes;
    for (size_t col : state.b_cols()) codes.push_back(v_join.GetCode(r, col));
    if (std::find(codes.begin(), codes.end(), kNullCode) != codes.end())
      continue;
    auto combo = combos.Find(codes);
    if (!combo.has_value()) continue;
    for (size_t d : row_classes(static_cast<uint32_t>(r)))
      ++class_load[d][*combo];
  }

  for (uint32_t row : leftovers) {
    size_t bin = binning.bin_of_row(row);
    const std::vector<size_t>& free = free_combos_for_bin(bin);
    if (free.empty()) {
      if (synthesized.has_value()) {
        state.AssignFullCombo(row, *synthesized);
        ++stats->completed_rows;
      } else {
        invalid.push_back(row);
        ++stats->invalid_rows;
      }
      continue;
    }
    // First candidate from the cursor on that keeps every class of the row
    // under the combo's key count; plain rotation when all are saturated.
    std::vector<size_t> classes = row_classes(row);
    size_t& cursor = cursor_for_bin(bin);
    size_t chosen = free[cursor % free.size()];
    bool found = classes.empty();
    for (size_t attempt = 0; !found && attempt < free.size(); ++attempt) {
      size_t combo = free[(cursor + attempt) % free.size()];
      bool fits = true;
      for (size_t d : classes) {
        fits &= class_load[d][combo] <
                static_cast<int64_t>(combos.keys(combo).size());
      }
      if (fits) {
        chosen = combo;
        cursor += attempt + 1;
        found = true;
      }
    }
    if (!found) ++cursor;
    for (size_t d : classes) ++class_load[d][chosen];
    state.AssignFullCombo(row, combos.combo_codes(chosen));
    ++stats->completed_rows;
  }
  return invalid;
}

/// The phase-I state the fill runs on; owns everything so pointers stay
/// valid.
struct FillInstance {
  std::unique_ptr<Table> v_join;
  std::unique_ptr<Binning> binning;
  std::unique_ptr<ComboIndex> combos;
  std::unique_ptr<FillState> state;
};

FillInstance MakeInstance(const Table& r1, const Table& r2,
                          const PairSchema& names,
                          const std::vector<CardinalityConstraint>& ccs,
                          bool run_hasse) {
  FillInstance in;
  auto v = MakeJoinView(r1, r2, names);
  CEXTEND_CHECK(v.ok());
  in.v_join = std::make_unique<Table>(std::move(v).value());
  auto binning = Binning::Create(*in.v_join, names.r1_attrs, ccs);
  CEXTEND_CHECK(binning.ok());
  in.binning = std::make_unique<Binning>(std::move(binning).value());
  auto combos = ComboIndex::Build(r2, names);
  CEXTEND_CHECK(combos.ok());
  in.combos = std::make_unique<ComboIndex>(std::move(combos).value());
  auto state = FillState::Create(in.v_join.get(), names, in.binning.get());
  CEXTEND_CHECK(state.ok());
  in.state = std::make_unique<FillState>(std::move(state).value());
  if (run_hasse) {
    Phase1HasseStats stats;
    CEXTEND_CHECK(RunPhase1HasseStandalone(*in.state, *in.combos, ccs,
                                           in.v_join->schema(), r2,
                                           &stats)
                      .ok());
  }
  return in;
}

/// Runs the production fill and the reference on identical instances and
/// returns the production join view for further checks.
Table ExpectFillMatchesReference(const Table& r1, const Table& r2,
                                 const PairSchema& names,
                                 const std::vector<CardinalityConstraint>& ccs,
                                 const std::vector<DenialConstraint>& dcs,
                                 bool run_hasse) {
  FillInstance fast = MakeInstance(r1, r2, names, ccs, run_hasse);
  FillInstance ref = MakeInstance(r1, r2, names, ccs, run_hasse);
  Rng rng(1);
  FinalFillStats fast_stats;
  FinalFillStats ref_stats;
  auto matches = MatchCcs(*fast.binning, *fast.combos, r2, ccs);
  CEXTEND_CHECK(matches.ok()) << matches.status().ToString();
  auto bound = BindAll(dcs, *fast.v_join);
  CEXTEND_CHECK(bound.ok()) << bound.status().ToString();
  const DcRowClasses dc_classes =
      DcRowClasses::Build(*fast.v_join, std::move(bound).value());
  auto got = CompleteLeftoverRows(*fast.state, *fast.combos, ccs, *matches,
                                  dc_classes, LeftoverMode::kAvoidCcs, rng,
                                  &fast_stats);
  auto want = ReferenceCompleteLeftoverRows(*ref.state, *ref.combos, r2, ccs,
                                            dcs, &ref_stats);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  if (got.ok() && want.ok()) {
    EXPECT_EQ(*got, *want);
  }
  EXPECT_EQ(fast_stats.completed_rows, ref_stats.completed_rows);
  EXPECT_EQ(fast_stats.invalid_rows, ref_stats.invalid_rows);
  ExpectTablesEqual(*fast.v_join, *ref.v_join, "join view after the fill");
  return std::move(*fast.v_join);
}

/// Census persons/housing plus a good (non-intersecting) CC family.
struct CensusInstance {
  datagen::CensusData data;
  std::vector<CardinalityConstraint> ccs;
};

CensusInstance MakeCensus(uint64_t seed, size_t persons, size_t households) {
  datagen::CensusOptions options;
  options.num_persons = persons;
  options.num_households = households;
  options.seed = seed;
  auto data = datagen::GenerateCensus(options);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 60;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  return {std::move(data).value(), std::move(ccs).value()};
}

class FinalFillReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FinalFillReferenceTest, CensusAllDcs) {
  CensusInstance in = MakeCensus(GetParam(), 3000, 1200);
  std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  Table with_dcs = ExpectFillMatchesReference(
      in.data.persons, in.data.housing, in.data.names, in.ccs, dcs,
      /*run_hasse=*/true);
  // The clique ledger must steer at least one pick, or this instance would
  // not test it.
  Table without_dcs = ExpectFillMatchesReference(
      in.data.persons, in.data.housing, in.data.names, in.ccs, {},
      /*run_hasse=*/true);
  bool differs = false;
  for (size_t c = 0; c < with_dcs.NumColumns() && !differs; ++c)
    differs = with_dcs.ColumnCodes(c) != without_dcs.ColumnCodes(c);
  EXPECT_TRUE(differs);
}

TEST_P(FinalFillReferenceTest, SelfConflictingCrossAtoms) {
  CensusInstance in = MakeCensus(GetParam(), 2000, 800);
  std::vector<DenialConstraint> dcs;
  {
    // x >= x - 5 holds on every row: each child with a known age is in
    // this DC's class.
    DenialConstraint dc(2, "close-children");
    dc.Unary(0, "Rel", CompareOp::kEq, Value(datagen::kBioChild));
    dc.Unary(1, "Rel", CompareOp::kEq, Value(datagen::kBioChild));
    dc.Binary(1, "Age", CompareOp::kGe, 0, "Age", -5);
    dcs.push_back(std::move(dc));
  }
  {
    // Same-tuple atom on two columns: only the row's own cells decide.
    DenialConstraint dc(2, "old-multilingual");
    dc.Unary(0, "MultiLing", CompareOp::kEq, Value(int64_t{1}));
    dc.Binary(0, "Age", CompareOp::kGt, 0, "MultiLing", 60);
    dc.Binary(0, "Age", CompareOp::kEq, 1, "Age");
    dcs.push_back(std::move(dc));
  }
  {
    // The roles overlap only on spouses, so owners are not in the class.
    DenialConstraint dc(2, "spouse-overlap");
    dc.UnaryIn(0, "Rel", {Value(datagen::kOwner), Value(datagen::kSpouse)});
    dc.UnaryIn(1, "Rel", {Value(datagen::kSpouse), Value(datagen::kPartner)});
    dcs.push_back(std::move(dc));
  }
  {
    // x > x + 3 holds on no row: pruned, and must change nothing.
    DenialConstraint dc(2, "strictly-older");
    dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", 3);
    dcs.push_back(std::move(dc));
  }
  {
    // Arity 3 forms no clique class and is ignored by the fill.
    DenialConstraint dc(3, "three-owners");
    for (int var = 0; var < 3; ++var)
      dc.Unary(var, "Rel", CompareOp::kEq, Value(datagen::kOwner));
    dcs.push_back(std::move(dc));
  }
  ExpectFillMatchesReference(in.data.persons, in.data.housing, in.data.names,
                             in.ccs, dcs, /*run_hasse=*/true);
}

TEST_P(FinalFillReferenceTest, SaturatedCombos) {
  // Sixty persons and three homes: the owner and spouse classes overflow
  // every combo's key count, so the fill falls back to plain rotation.
  Rng rng(GetParam());
  Schema r1_schema{{"pid", DataType::kInt64},
                   {"Age", DataType::kInt64},
                   {"Rel", DataType::kString},
                   {"MultiLing", DataType::kInt64},
                   {"hid", DataType::kInt64}};
  Table r1{r1_schema};
  const char* rels[] = {datagen::kOwner, datagen::kSpouse, datagen::kBioChild};
  for (int i = 0; i < 60; ++i) {
    CEXTEND_CHECK(r1.AppendRow({Value(i + 1), Value(rng.UniformInt(0, 90)),
                                Value(rels[rng.UniformInt(0, 2)]),
                                Value(rng.UniformInt(0, 1)), Value::Null()})
                      .ok());
  }
  Schema r2_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table r2{r2_schema};
  const char* areas[] = {"A", "A", "B"};
  for (int h = 1; h <= 3; ++h) {
    CEXTEND_CHECK(r2.AppendRow({Value(h), Value(areas[h - 1])}).ok());
  }
  auto names = PairSchema::Infer(r1, r2, "pid", "hid", "hid");
  ASSERT_TRUE(names.ok());
  CardinalityConstraint cc;
  cc.name = "young-in-B";
  cc.r1_condition.Between("Age", 0, 17);
  cc.r2_condition.Eq("Area", Value("B"));
  cc.target = 2;
  std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  {
    DenialConstraint dc(2, "close-ages");
    dc.Binary(0, "Age", CompareOp::kLe, 1, "Age", 10);
    dcs.push_back(std::move(dc));
  }
  // More owners than R2 has keys: the owner class must saturate.
  size_t owners = 0;
  for (size_t r = 0; r < r1.NumRows(); ++r)
    owners += r1.GetValue(r, 2).AsString() == datagen::kOwner ? 1 : 0;
  ASSERT_GT(owners, r2.NumRows());
  ExpectFillMatchesReference(r1, r2, names.value(), {cc}, dcs,
                             /*run_hasse=*/false);
  // With no CC the whole R2 is free for every bin.
  ExpectFillMatchesReference(r1, r2, names.value(), {}, dcs,
                             /*run_hasse=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FinalFillReferenceTest,
                         ::testing::Range<uint64_t>(1, 4));

}  // namespace
}  // namespace cextend
