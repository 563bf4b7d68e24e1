#include "core/join_view.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/interning_oracle.h"
#include "core/join_oracle.h"
#include "core/match_oracle.h"
#include "datagen/census.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

TEST(PairSchemaTest, InferFindsAttributes) {
  PaperExample ex = MakePaperExample();
  EXPECT_EQ(ex.names.key1, "pid");
  EXPECT_EQ(ex.names.fk, "hid");
  EXPECT_EQ(ex.names.key2, "hid");
  EXPECT_EQ(ex.names.r1_attrs,
            (std::vector<std::string>{"Age", "Rel", "MultiLing"}));
  EXPECT_EQ(ex.names.r2_attrs, (std::vector<std::string>{"Area"}));
}

TEST(PairSchemaTest, ValidateRejectsBadNames) {
  PaperExample ex = MakePaperExample();
  PairSchema bad = ex.names;
  bad.key1 = "nope";
  EXPECT_FALSE(bad.Validate(ex.persons, ex.housing).ok());
  bad = ex.names;
  bad.r2_attrs.push_back("Age");  // would collide with R1
  EXPECT_FALSE(bad.Validate(ex.persons, ex.housing).ok());
  bad = ex.names;
  bad.r1_attrs.push_back("hid");  // overlaps FK
  EXPECT_FALSE(bad.Validate(ex.persons, ex.housing).ok());
}

// R2's keys must be distinct and non-NULL, whether they are dense (checked
// with a bitmap over their range) or sparse (a hash set), down to the
// extremes of INT64.
TEST(PairSchemaTest, ValidateRejectsNullOrDuplicateR2Keys) {
  PaperExample ex = MakePaperExample();
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = kNullCode + 1;
  struct Case {
    std::vector<int64_t> keys;
    bool ok;
  };
  const Case cases[] = {
      {{3, 1, 2, 4, 5, 6}, true},
      {{3, 1, 2, 4, 5, 3}, false},
      {{1, 2, 3, 4, 5, kNullCode}, false},
      {{1, int64_t{1} << 40, 7, 9, max, min}, true},
      {{1, int64_t{1} << 40, 7, 9, max, int64_t{1} << 40}, false},
      {{min, max, 0, -1, 1, max}, false},
      {{0, 63, 64, 127, 128, 191}, true},
      {{0, 63, 64, 127, 128, 63}, false},
  };
  for (const Case& c : cases) {
    Table housing = ex.housing.Clone();
    for (size_t r = 0; r < c.keys.size(); ++r) housing.SetCode(r, 0, c.keys[r]);
    const Status status = ex.names.Validate(ex.persons, housing);
    EXPECT_EQ(status.ok(), c.ok) << status.ToString() << " at key "
                                 << c.keys.back();
    if (!c.ok) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
  // An empty R2 has no keys to repeat.
  Table empty{ex.housing.schema()};
  EXPECT_TRUE(ex.names.Validate(ex.persons, empty).ok());
}

// R1's key is checked the same way: R̂1 keeps it as its primary key.
TEST(PairSchemaTest, ValidateRejectsNullOrDuplicateR1Keys) {
  PaperExample ex = MakePaperExample();
  const size_t pid = ex.persons.schema().IndexOrDie("pid");
  const size_t last = ex.persons.NumRows() - 1;
  struct Case {
    int64_t key;
    const char* message;
  };
  const Case cases[] = {
      {kNullCode, "R1 key column 'pid' is NULL in row"},
      {ex.persons.GetCode(0, pid), "R1 key column 'pid' repeats key"},
  };
  for (const Case& c : cases) {
    Table persons = ex.persons.Clone();
    persons.SetCode(last, pid, c.key);
    const Status status = ex.names.Validate(persons, ex.housing);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_NE(status.ToString().find(c.message), std::string::npos)
        << status.ToString();
  }
  EXPECT_TRUE(ex.names.Validate(ex.persons, ex.housing).ok());
}

TEST(JoinViewTest, MakeJoinViewCopiesR1AndNullsB) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->NumRows(), ex.persons.NumRows());
  EXPECT_EQ(v->schema().ToString(),
            "pid:INT64, Age:INT64, Rel:STRING, MultiLing:INT64, Area:STRING");
  EXPECT_EQ(v->GetValue(0, v->schema().IndexOrDie("Age")), Value(75));
  EXPECT_EQ(v->GetValue(0, v->schema().IndexOrDie("Rel")), Value("Owner"));
  for (size_t r = 0; r < v->NumRows(); ++r) {
    EXPECT_TRUE(v->IsNull(r, v->schema().IndexOrDie("Area")));
  }
  // The Area column shares R2's dictionary.
  EXPECT_EQ(v->dictionary(v->schema().IndexOrDie("Area")),
            ex.housing.dictionary(ex.housing.schema().IndexOrDie("Area")));
}

TEST(JoinViewTest, MaterializeJoinFillsB) {
  PaperExample ex = MakePaperExample();
  Table persons = ex.persons.Clone();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  for (size_t r = 0; r < persons.NumRows(); ++r)
    persons.SetCode(r, hid_col, hids[r]);
  auto v = join_oracle::MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok()) << v.status();
  size_t area = v->schema().IndexOrDie("Area");
  EXPECT_EQ(v->GetValue(0, area), Value("Chicago"));  // hid 2
  EXPECT_EQ(v->GetValue(7, area), Value("NYC"));      // hid 5
}

TEST(JoinViewTest, MaterializeJoinRejectsNullAndDanglingFk) {
  PaperExample ex = MakePaperExample();
  EXPECT_FALSE(
      join_oracle::MaterializeJoin(ex.persons, ex.housing, ex.names).ok());
  Table persons = ex.persons.Clone();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  for (size_t r = 0; r < persons.NumRows(); ++r)
    persons.SetCode(r, hid_col, 99);  // dangling
  EXPECT_FALSE(
      join_oracle::MaterializeJoin(persons, ex.housing, ex.names).ok());
}

TEST(ComboIndexTest, BuildsDistinctCombos) {
  PaperExample ex = MakePaperExample();
  auto combos = ComboIndex::Build(ex.housing, ex.names);
  ASSERT_TRUE(combos.ok());
  EXPECT_EQ(combos->num_combos(), 2u);  // Chicago, NYC
  // Keys 1-4 carry Chicago; 5-6 carry NYC (in some combo order).
  size_t chicago = combos->keys(0).size() == 4 ? 0 : 1;
  EXPECT_EQ(combos->keys(chicago), (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(combos->keys(1 - chicago), (std::vector<int64_t>{5, 6}));
}

TEST(ComboIndexTest, MatchingCombos) {
  PaperExample ex = MakePaperExample();
  auto combos = ComboIndex::Build(ex.housing, ex.names);
  ASSERT_TRUE(combos.ok());
  Predicate chicago;
  chicago.Eq("Area", Value("Chicago"));
  auto match = match_oracle::MatchingCombos(*combos, ex.housing, chicago);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->size(), 1u);
  auto all =
      match_oracle::MatchingCombos(*combos, ex.housing, Predicate::True());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  Predicate none;
  none.Eq("Area", Value("LA"));
  auto empty = match_oracle::MatchingCombos(*combos, ex.housing, none);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ComboIndexTest, FindExactCombo) {
  PaperExample ex = MakePaperExample();
  auto combos = ComboIndex::Build(ex.housing, ex.names);
  ASSERT_TRUE(combos.ok());
  for (size_t i = 0; i < combos->num_combos(); ++i) {
    EXPECT_EQ(combos->Find(combos->combo_codes(i)).value(), i);
  }
  EXPECT_FALSE(combos->Find(std::vector<int64_t>{12345}).has_value());
}

// ---- Combos against the std::map reference loop (interning_oracle.h). ----

TEST(ComboIndexOracleTest, CensusHousing) {
  // 2 B columns (the perfbench shape) and 10 (Figure 12's widest R2).
  for (size_t r2_columns : {size_t{2}, size_t{10}}) {
    datagen::CensusOptions options = datagen::ScaledCensusOptions(0.1);
    options.num_r2_columns = r2_columns;
    auto data = datagen::GenerateCensus(options);
    ASSERT_TRUE(data.ok());
    auto combos = ComboIndex::Build(data->housing, data->names);
    ASSERT_TRUE(combos.ok());
    const std::string what = std::to_string(r2_columns) + " B columns";
    interning_oracle::ExpectComboIndexMatches(
        *combos, interning_oracle::IndexCombos(data->housing, data->names),
        what.c_str());
  }
}

TEST(ComboIndexOracleTest, RandomR2WithNullsAndExtremeCodes) {
  Schema schema{{"k", DataType::kInt64},
                {"B1", DataType::kInt64},
                {"B2", DataType::kString},
                {"B3", DataType::kInt64}};
  const Value extremes[] = {Value(std::numeric_limits<int64_t>::max()),
                            Value(std::numeric_limits<int64_t>::min() + 1),
                            Value(int64_t{0}), Value::Null()};
  for (uint64_t seed : {1, 2, 3}) {
    Table r2{schema};
    Rng rng(seed);
    const char* strings[] = {"p", "q"};
    for (int64_t key = 1; key <= 2000; ++key) {
      Value b2 = rng.Bernoulli(0.1) ? Value::Null()
                                    : Value(strings[rng.UniformInt(0, 1)]);
      CEXTEND_CHECK(r2.AppendRow({Value(3 * key),
                                  extremes[rng.UniformInt(0, 3)], b2,
                                  rng.Bernoulli(0.1)
                                      ? Value::Null()
                                      : Value(rng.UniformInt(-20, 20))})
                        .ok());
    }
    PairSchema names;
    names.key2 = "k";
    names.r2_attrs = {"B1", "B2", "B3"};
    auto combos = ComboIndex::Build(r2, names);
    ASSERT_TRUE(combos.ok());
    ASSERT_GT(combos->num_combos(), 100u);
    interning_oracle::ExpectComboIndexMatches(
        *combos, interning_oracle::IndexCombos(r2, names), "random R2");
  }
}

}  // namespace
}  // namespace cextend
