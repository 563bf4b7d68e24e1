// MatchCcs (core/fill_state.h) builds each CC's bin and combo lists from
// cached per-atom bitsets. These tests check it against the
// per-representative oracle of match_oracle.h: identical lists on the census
// good and bad CC families at 201 and 1001 CCs, and on seeded random
// conditions over tables with NULL cells, where a condition that does not
// bind must fail with the oracle's Status.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fill_state.h"
#include "core/match_oracle.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

/// The oracle's CcMatch for one CC, or the first Status it fails with
/// (R1 side first, as MatchCcs binds).
StatusOr<CcMatch> OracleMatch(const Binning& binning, const ComboIndex& combos,
                              const Table& r2,
                              const CardinalityConstraint& cc) {
  CcMatch match;
  CEXTEND_ASSIGN_OR_RETURN(
      match.bins, match_oracle::MatchingBins(binning, cc.r1_condition));
  CEXTEND_ASSIGN_OR_RETURN(
      match.combos,
      match_oracle::MatchingCombos(combos, r2, cc.r2_condition));
  return match;
}

/// Checks MatchCcs over `ccs` against the oracle, CC by CC and as one call
/// (which fails with the first CC's Status that the oracle fails on).
void ExpectMatchesOracle(const Binning& binning, const ComboIndex& combos,
                         const Table& r2,
                         const std::vector<CardinalityConstraint>& ccs) {
  Status first_failure;
  std::vector<CcMatch> want;
  for (const CardinalityConstraint& cc : ccs) {
    StatusOr<CcMatch> oracle = OracleMatch(binning, combos, r2, cc);
    StatusOr<std::vector<CcMatch>> got = MatchCcs(binning, combos, r2, {cc});
    ASSERT_EQ(got.ok(), oracle.ok())
        << cc.name << ": " << got.status().ToString() << " vs "
        << oracle.status().ToString();
    if (!oracle.ok()) {
      EXPECT_EQ(got.status(), oracle.status()) << cc.name;
      if (first_failure.ok()) first_failure = oracle.status();
      continue;
    }
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ((*got)[0].bins, oracle->bins) << cc.name;
    EXPECT_EQ((*got)[0].combos, oracle->combos) << cc.name;
    want.push_back(*oracle);
  }
  StatusOr<std::vector<CcMatch>> all = MatchCcs(binning, combos, r2, ccs);
  if (!first_failure.ok()) {
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.status(), first_failure);
    return;
  }
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ((*all)[c].bins, want[c].bins) << ccs[c].name;
    EXPECT_EQ((*all)[c].combos, want[c].combos) << ccs[c].name;
  }
}

struct FamilyCase {
  bool intersecting;
  size_t num_ccs;
};

class MatchCcsOracleTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(MatchCcsOracleTest, CensusFamily) {
  const FamilyCase& param = GetParam();
  auto data = datagen::GenerateCensus(datagen::ScaledCensusOptions(0.1));
  ASSERT_TRUE(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = param.num_ccs;
  cc_options.intersecting = param.intersecting;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  ASSERT_TRUE(ccs.ok());
  ASSERT_EQ(ccs->size(), param.num_ccs);
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(*v, data->names.r1_attrs, *ccs);
  ASSERT_TRUE(binning.ok());
  auto combos = ComboIndex::Build(data->housing, data->names);
  ASSERT_TRUE(combos.ok());
  ExpectMatchesOracle(*binning, *combos, data->housing, *ccs);
}

INSTANTIATE_TEST_SUITE_P(
    GoodAndBad, MatchCcsOracleTest,
    ::testing::Values(FamilyCase{false, 201}, FamilyCase{false, 1001},
                      FamilyCase{true, 201}, FamilyCase{true, 1001}));

/// R1 (pid, Age, Rel, Score, hid) and R2 (hid, Area, Rooms) with NULL cells
/// in every attribute column.
struct RandomPair {
  Table persons;
  Table housing;
  PairSchema names;
};

RandomPair MakeRandomPair(Rng& rng) {
  const char* kRels[] = {"Owner", "Spouse", "Child", "Lodger"};
  const char* kAreas[] = {"Chicago", "NYC", "Austin"};
  Table persons{Schema{{"pid", DataType::kInt64},
                       {"Age", DataType::kInt64},
                       {"Rel", DataType::kString},
                       {"Score", DataType::kInt64},
                       {"hid", DataType::kInt64}}};
  for (int64_t pid = 1; pid <= 120; ++pid) {
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : v;
    };
    CEXTEND_CHECK(
        persons
            .AppendRow({Value(pid), maybe_null(Value(rng.UniformInt(0, 40))),
                        maybe_null(Value(kRels[rng.UniformInt(0, 3)])),
                        maybe_null(Value(rng.UniformInt(-3, 3))),
                        Value::Null()})
            .ok());
  }
  Table housing{Schema{{"hid", DataType::kInt64},
                       {"Area", DataType::kString},
                       {"Rooms", DataType::kInt64}}};
  for (int64_t hid = 1; hid <= 40; ++hid) {
    CEXTEND_CHECK(
        housing
            .AppendRow({Value(hid),
                        rng.Bernoulli(0.1)
                            ? Value::Null()
                            : Value(kAreas[rng.UniformInt(0, 2)]),
                        rng.Bernoulli(0.1) ? Value::Null()
                                           : Value(rng.UniformInt(1, 6))})
            .ok());
  }
  RandomPair pair{std::move(persons), std::move(housing), {}};
  auto names =
      PairSchema::Infer(pair.persons, pair.housing, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());
  pair.names = std::move(names).value();
  return pair;
}

/// A random conjunction over `int_cols` and `str_cols` (plus, rarely, an
/// unknown column). Constants are drawn so that some are absent from the
/// dictionary or of the wrong type; ordering atoms sometimes hit a string
/// column. Zero atoms is the empty (TRUE) predicate.
Predicate RandomCondition(Rng& rng, const std::vector<std::string>& int_cols,
                          const std::vector<std::string>& str_cols,
                          const std::vector<std::string>& strings) {
  auto constant = [&](bool string_column) -> Value {
    if (rng.Bernoulli(0.1)) {  // wrong type
      return string_column ? Value(rng.UniformInt(0, 5)) : Value("Owner");
    }
    if (string_column) {
      return rng.Bernoulli(0.2) ? Value("Absent") : Value(rng.Choice(strings));
    }
    return Value(rng.UniformInt(-5, 45));
  };
  Predicate pred;
  const int64_t num_atoms = rng.UniformInt(0, 3);
  for (int64_t a = 0; a < num_atoms; ++a) {
    if (rng.Bernoulli(0.03)) {
      pred.Eq("NoSuchColumn", Value(int64_t{1}));
      continue;
    }
    const bool string_column = rng.Bernoulli(0.4);
    const std::string& col =
        string_column ? rng.Choice(str_cols) : rng.Choice(int_cols);
    const auto op = static_cast<CompareOp>(rng.UniformInt(0, 6));
    if (op == CompareOp::kIn) {
      std::vector<Value> values;
      const int64_t k = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < k; ++i) values.push_back(constant(string_column));
      pred.In(col, std::move(values));
    } else if (string_column && op != CompareOp::kEq &&
               op != CompareOp::kNe && !rng.Bernoulli(0.15)) {
      // Mostly keep string columns to = / != so most conditions bind.
      pred.AddAtom({col, rng.Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe,
                    constant(true), {}});
    } else {
      pred.AddAtom({col, op, constant(string_column), {}});
    }
  }
  return pred;
}

TEST(MatchCcsOracleTest, SeededRandomConditions) {
  const std::vector<std::string> rels = {"Owner", "Spouse", "Child", "Lodger"};
  const std::vector<std::string> areas = {"Chicago", "NYC", "Austin"};
  size_t failures = 0;
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    RandomPair pair = MakeRandomPair(rng);
    auto v = MakeJoinView(pair.persons, pair.housing, pair.names);
    ASSERT_TRUE(v.ok());
    // No CCs at binning: every distinct (Age, Rel, Score) is its own bin,
    // NULL cells included.
    auto binning = Binning::Create(*v, pair.names.r1_attrs, {});
    ASSERT_TRUE(binning.ok());
    auto combos = ComboIndex::Build(pair.housing, pair.names);
    ASSERT_TRUE(combos.ok());
    std::vector<CardinalityConstraint> ccs;
    for (size_t c = 0; c < 40; ++c) {
      CardinalityConstraint cc;
      cc.name = "cc" + std::to_string(c);
      cc.r1_condition = RandomCondition(rng, {"Age", "Score"}, {"Rel"}, rels);
      cc.r2_condition =
          RandomCondition(rng, {"Rooms", "hid"}, {"Area"}, areas);
      ccs.push_back(std::move(cc));
    }
    ExpectMatchesOracle(*binning, *combos, pair.housing, ccs);
    for (const CardinalityConstraint& cc : ccs) {
      ++checked;
      if (!OracleMatch(*binning, *combos, pair.housing, cc).ok()) ++failures;
    }
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(failures, 10u);
  EXPECT_GT(checked - failures, checked / 2);
}

TEST(MatchCcsOracleTest, EdgeConditions) {
  Rng rng(99);
  RandomPair pair = MakeRandomPair(rng);
  auto v = MakeJoinView(pair.persons, pair.housing, pair.names);
  ASSERT_TRUE(v.ok());
  auto binning = Binning::Create(*v, pair.names.r1_attrs, {});
  ASSERT_TRUE(binning.ok());
  auto combos = ComboIndex::Build(pair.housing, pair.names);
  ASSERT_TRUE(combos.ok());

  auto cc = [](const char* name, Predicate r1, Predicate r2) {
    CardinalityConstraint out;
    out.name = name;
    out.r1_condition = std::move(r1);
    out.r2_condition = std::move(r2);
    return out;
  };
  Predicate area_absent_ne;
  area_absent_ne.Ne("Area", Value("Absent"));
  Predicate rel_absent_eq;
  rel_absent_eq.Eq("Rel", Value("Absent"));
  Predicate rel_in_absent;
  rel_in_absent.In("Rel", {Value("Absent"), Value("Nobody")});
  Predicate rel_in_mixed;
  rel_in_mixed.In("Rel", {Value("Absent"), Value("Child")});
  Predicate age_ne;
  age_ne.Ne("Age", Value(int64_t{10}));
  Predicate rooms_range;
  rooms_range.Ge("Rooms", Value(int64_t{2})).Lt("Rooms", Value(int64_t{5}));
  Predicate unknown;
  unknown.Eq("Nope", Value(int64_t{1}));
  Predicate rel_ordering;
  rel_ordering.Lt("Rel", Value("Owner"));
  Predicate absent_then_unknown;  // fails on "Nope" after the absent `=`
  absent_then_unknown.Eq("Rel", Value("Absent")).Eq("Nope", Value(1));

  const std::vector<CardinalityConstraint> ok_ccs = {
      cc("empty", Predicate::True(), Predicate::True()),
      cc("ne_absent", age_ne, area_absent_ne),
      cc("eq_absent", rel_absent_eq, rooms_range),
      cc("in_absent", rel_in_absent, Predicate::True()),
      cc("in_mixed", rel_in_mixed, area_absent_ne),
  };
  ExpectMatchesOracle(*binning, *combos, pair.housing, ok_ccs);
  auto all = MatchCcs(*binning, *combos, pair.housing, ok_ccs);
  ASSERT_TRUE(all.ok());
  // The empty predicate covers everything; NULL cells fail `!=`.
  EXPECT_EQ((*all)[0].bins.size(), binning->num_bins());
  EXPECT_EQ((*all)[0].combos.size(), combos->num_combos());
  EXPECT_LT((*all)[1].combos.size(), combos->num_combos());
  EXPECT_TRUE((*all)[2].bins.empty());
  EXPECT_TRUE((*all)[3].bins.empty());
  EXPECT_FALSE((*all)[4].bins.empty());

  for (const CardinalityConstraint& bad :
       {cc("unknown_r1", unknown, Predicate::True()),
        cc("unknown_r2", Predicate::True(), unknown),
        cc("ordering_r1", rel_ordering, Predicate::True()),
        cc("absent_then_unknown", absent_then_unknown, Predicate::True())}) {
    ExpectMatchesOracle(*binning, *combos, pair.housing, {bad});
    auto got = MatchCcs(*binning, *combos, pair.housing, {bad});
    EXPECT_FALSE(got.ok()) << bad.name;
  }
}

}  // namespace
}  // namespace cextend
