#include "core/binning.h"

#include <gtest/gtest.h>

#include "core/fill_state.h"
#include "core/interning_oracle.h"
#include "core/join_view.h"
#include "core/marginals_oracle.h"
#include "core/match_oracle.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

/// Rows per bin, counted through bin_of_row.
std::vector<size_t> BinSizes(const Binning& binning) {
  std::vector<size_t> sizes(binning.num_bins(), 0);
  for (size_t r = 0; r < binning.num_rows(); ++r) {
    ++sizes[binning.bin_of_row(r)];
  }
  return sizes;
}

TEST(BinningTest, PaperExample41Intervalization) {
  // CC3 (Age <= 24) splits Age into [.., 24] and [25, ..] (Example 4.1).
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(v.value(), ex.names.r1_attrs, ex.ccs);
  ASSERT_TRUE(binning.ok()) << binning.status();
  ASSERT_TRUE(binning->cuts().contains("Age"));
  EXPECT_EQ(binning->cuts().at("Age"), (std::vector<int64_t>{25}));
  // Example 4.1 lists exactly 4 realized tuple types:
  //   (25+, Owner, 0), (<=24, Spouse, 0), (<=24, Child, 1), (25+, Owner, 1).
  EXPECT_EQ(binning->num_bins(), 4u);
  // Row partition sizes: {1,3,8}=3 owners ml=0; {2,4,9}=3 owners ml=1;
  // {5}=1 spouse; {6,7}=2 children.
  std::vector<size_t> sizes = BinSizes(*binning);
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 2, 3, 3}));
}

TEST(BinningTest, MatchingBinsExactForCcConditions) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(v.value(), ex.names.r1_attrs, ex.ccs);
  ASSERT_TRUE(binning.ok());
  // CC3's R1 condition Age <= 24 matches the spouse bin and the child bin.
  auto bins = match_oracle::MatchingBins(*binning, ex.ccs[2].r1_condition);
  ASSERT_TRUE(bins.ok());
  const std::vector<size_t> sizes = BinSizes(*binning);
  size_t rows = 0;
  for (size_t b : *bins) rows += sizes[b];
  EXPECT_EQ(rows, 3u);  // pids 5, 6, 7
  // Bin membership agrees with a per-row evaluation.
  auto pred = BoundPredicate::Bind(ex.ccs[2].r1_condition, v.value());
  ASSERT_TRUE(pred.ok());
  for (size_t r = 0; r < v->NumRows(); ++r) {
    EXPECT_EQ(pred->Matches(v.value(), r),
              match_oracle::BinMatches(*binning, binning->bin_of_row(r),
                                       pred.value()));
  }
}

TEST(BinningTest, BinOfRowConsistent) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(v.value(), ex.names.r1_attrs, ex.ccs);
  ASSERT_TRUE(binning.ok());
  // FillState's pools hold each bin's rows, every row exactly once.
  auto state = FillState::Create(&v.value(), ex.names, &binning.value());
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_EQ(state->num_bins(), binning->num_bins());
  for (size_t b = 0; b < binning->num_bins(); ++b) {
    for (uint32_t r : state->pool(b)) {
      EXPECT_EQ(binning->bin_of_row(r), b);
    }
  }
  EXPECT_EQ(state->total_unassigned(), v->NumRows());
}

TEST(BinningTest, IrregularCcGetsMatchBit) {
  // A != atom on an integer column is not interval-representable; binning
  // must still keep CC selections unions of bins.
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  CardinalityConstraint odd;
  odd.name = "odd";
  odd.r1_condition.Ne("Age", Value(int64_t{25}));
  odd.r2_condition.Eq("Area", Value("Chicago"));
  std::vector<CardinalityConstraint> ccs = ex.ccs;
  ccs.push_back(odd);
  auto binning = Binning::Create(v.value(), ex.names.r1_attrs, ccs);
  ASSERT_TRUE(binning.ok());
  auto pred = BoundPredicate::Bind(odd.r1_condition, v.value());
  ASSERT_TRUE(pred.ok());
  for (size_t r = 0; r < v->NumRows(); ++r) {
    EXPECT_EQ(pred->Matches(v.value(), r),
              match_oracle::BinMatches(*binning, binning->bin_of_row(r),
                                       pred.value()));
  }
}

TEST(BinningTest, BinConditionReconstructs) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(v.value(), ex.names.r1_attrs, ex.ccs);
  ASSERT_TRUE(binning.ok());
  const std::vector<size_t> sizes = BinSizes(*binning);
  for (size_t b = 0; b < binning->num_bins(); ++b) {
    auto cond = marginals_oracle::BinCondition(*binning, ex.names.r1_attrs, b);
    ASSERT_TRUE(cond.ok());
    auto pred = BoundPredicate::Bind(cond.value(), v.value());
    ASSERT_TRUE(pred.ok());
    // The bin's own rows all match; rows of other bins do not.
    EXPECT_EQ(pred->CountMatches(v.value()), sizes[b]);
  }
}

// ---- Bins against the std::map reference loop (interning_oracle.h). ----

TEST(BinningOracleTest, CensusGoodAndBadFamilies) {
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(0.1));
  ASSERT_TRUE(data.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  ASSERT_TRUE(v.ok());
  for (bool intersecting : {false, true}) {
    datagen::CcFamilyOptions cc_options;
    cc_options.num_ccs = 201;
    cc_options.intersecting = intersecting;
    auto ccs = datagen::GenerateCcs(data.value(), cc_options);
    ASSERT_TRUE(ccs.ok());
    auto binning = Binning::Create(v.value(), data->names.r1_attrs, *ccs);
    ASSERT_TRUE(binning.ok()) << binning.status();
    interning_oracle::ExpectBinningMatches(
        v.value(), *binning,
        interning_oracle::BinRows(v.value(), data->names.r1_attrs, *ccs),
        intersecting ? "bad family" : "good family");
  }
}

/// A table whose int columns take NULLs and a chosen spread of values:
/// X small (0..60), W exactly `w_span` wide, Y signed and ~6e9 wide, plus a
/// string column and a never-cut int column.
Table RandomTable(uint64_t seed, size_t rows, int64_t w_span) {
  Schema schema{{"X", DataType::kInt64},
                {"W", DataType::kInt64},
                {"Y", DataType::kInt64},
                {"S", DataType::kString},
                {"Z", DataType::kInt64}};
  Table t{schema};
  Rng rng(seed);
  const char* strings[] = {"a", "b", "c"};
  auto maybe_null = [&](Value v) {
    return rng.Bernoulli(0.1) ? Value::Null() : v;
  };
  for (size_t r = 0; r < rows; ++r) {
    // W hits both ends of its span often, so the observed range is exact.
    int64_t w = rng.Bernoulli(0.2)   ? 0
                : rng.Bernoulli(0.2) ? w_span - 1
                                     : rng.UniformInt(0, w_span - 1);
    CEXTEND_CHECK(
        t.AppendRow({maybe_null(Value(rng.UniformInt(0, 60))),
                     maybe_null(Value(w)),
                     maybe_null(Value(rng.UniformInt(-3000000000LL,
                                                     3000000000LL))),
                     maybe_null(Value(strings[rng.UniformInt(0, 2)])),
                     maybe_null(Value(rng.UniformInt(0, 3)))})
            .ok());
  }
  return t;
}

std::vector<CardinalityConstraint> RandomCcs(uint64_t seed, int64_t w_span) {
  Rng rng(seed);
  std::vector<CardinalityConstraint> ccs;
  for (int i = 0; i < 12; ++i) {
    CardinalityConstraint cc;
    cc.name = "cc" + std::to_string(i);
    int64_t lo = rng.UniformInt(0, 50);
    cc.r1_condition.Between("X", lo, lo + rng.UniformInt(0, 20));
    if (i % 2 == 0) {
      cc.r1_condition.Le("W", Value(rng.UniformInt(0, w_span - 1)));
    }
    if (i % 3 == 0) {
      cc.r1_condition.Ge("Y", Value(rng.UniformInt(-3000000000LL,
                                                   3000000000LL)));
    }
    if (i % 4 == 0) cc.r1_condition.Eq("S", Value("b"));
    ccs.push_back(std::move(cc));
  }
  // Irregular: != on an int column becomes a match bit.
  CardinalityConstraint ne;
  ne.name = "ne";
  ne.r1_condition.Ne("X", Value(int64_t{7}));
  ccs.push_back(std::move(ne));
  return ccs;
}

TEST(BinningOracleTest, RandomTablesWithNullsAndIrregularCc) {
  // W spans exactly the lookup-table cap (2^20 codes, table path) and one
  // past it (upper_bound fallback); Y always takes the fallback.
  const std::vector<std::string> columns = {"X", "W", "Y", "S", "Z"};
  for (int64_t w_span : {int64_t{1} << 20, (int64_t{1} << 20) + 1}) {
    for (uint64_t seed : {1, 2, 3}) {
      Table t = RandomTable(seed, 3000, w_span);
      std::vector<CardinalityConstraint> ccs = RandomCcs(seed, w_span);
      auto binning = Binning::Create(t, columns, ccs);
      ASSERT_TRUE(binning.ok()) << binning.status();
      ASSERT_EQ(binning->cuts().count("W"), 1u);
      ASSERT_EQ(binning->cuts().count("Y"), 1u);
      const std::string what = "span " + std::to_string(w_span) + " seed " +
                               std::to_string(seed);
      interning_oracle::ExpectBinningMatches(
          t, *binning, interning_oracle::BinRows(t, columns, ccs),
          what.c_str());
    }
  }
}

TEST(BinningOracleTest, ExtremeCodesTakeTheFallback) {
  // Codes at both ends of int64 (the low one is kNullCode + 1) make the
  // observed range ~2^64: binning must not overflow computing it.
  Schema schema{{"X", DataType::kInt64}};
  Table t{schema};
  for (int64_t x : {std::numeric_limits<int64_t>::min() + 1, int64_t{-5},
                    int64_t{0}, int64_t{5}, std::numeric_limits<int64_t>::max(),
                    int64_t{5}}) {
    CEXTEND_CHECK(t.AppendRow({Value(x)}).ok());
  }
  CEXTEND_CHECK(t.AppendRow({Value::Null()}).ok());
  CardinalityConstraint cc;
  cc.r1_condition.Between("X", -1, 4);
  auto binning = Binning::Create(t, {"X"}, {cc});
  ASSERT_TRUE(binning.ok()) << binning.status();
  EXPECT_EQ(binning->num_bins(), 4u);  // below, inside, above, NULL
  interning_oracle::ExpectBinningMatches(
      t, *binning, interning_oracle::BinRows(t, {"X"}, {cc}), "extremes");
}

TEST(MarginalsTest, AllWayMarginalsMatchBinCounts) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(v.value(), ex.names.r1_attrs, ex.ccs);
  ASSERT_TRUE(binning.ok());
  auto marginals =
      marginals_oracle::ComputeAllWayMarginals(*binning, ex.names.r1_attrs);
  ASSERT_TRUE(marginals.ok());
  EXPECT_EQ(marginals->size(), binning->num_bins());
  int64_t total = 0;
  for (const CardinalityConstraint& m : *marginals) {
    EXPECT_TRUE(m.r2_condition.IsTrue());
    total += m.target;
  }
  EXPECT_EQ(total, static_cast<int64_t>(v->NumRows()));
}

}  // namespace
}  // namespace cextend
