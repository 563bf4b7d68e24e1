#include "datagen/census.h"

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/join_oracle.h"
#include "datagen/constraint_gen.h"
#include "util/hash.h"

namespace cextend {
namespace datagen {
namespace {

CensusOptions SmallOptions(uint64_t seed = 42) {
  CensusOptions options;
  options.num_persons = 1200;
  options.num_households = 470;
  options.seed = seed;
  return options;
}

/// FNV-1a over every cell's text (NULL renders empty), a unit separator
/// after each cell and a record separator after each row.
uint64_t TableDigest(const Table& t) {
  uint64_t h = kFnv1aBasis;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      Value v = t.GetValue(r, c);
      const std::string text = v.is_null() ? std::string() : v.ToString();
      h = Fnv1a(h, text.data(), text.size());
      h = Fnv1a(h, "\x1f", 1);
    }
    h = Fnv1a(h, "\x1e", 1);
  }
  return h;
}

/// FNV-1a over a table's codes, column by column (each code's 8 bytes), then
/// over each string column's dictionary in code order (each string followed
/// by a unit separator). Unlike TableDigest it sees how labels are numbered.
uint64_t CodeDigest(const Table& t) {
  uint64_t h = kFnv1aBasis;
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    for (int64_t code : t.ColumnCodes(c)) {
      h = Fnv1a(h, reinterpret_cast<const char*>(&code), sizeof(code));
    }
    h = Fnv1a(h, "\x1e", 1);
  }
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const Dictionary* dict = t.dictionary(c).get();
    if (dict == nullptr) continue;
    for (int64_t code = 0; code < dict->size(); ++code) {
      const std::string& text = dict->Get(code);
      h = Fnv1a(h, text.data(), text.size());
      h = Fnv1a(h, "\x1f", 1);
    }
    h = Fnv1a(h, "\x1e", 1);
  }
  return h;
}

TEST(CensusTest, ExactRowCounts) {
  auto data = GenerateCensus(SmallOptions());
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->persons.NumRows(), 1200u);
  EXPECT_EQ(data->housing.NumRows(), 470u);
  EXPECT_EQ(data->persons_truth.NumRows(), 1200u);
}

TEST(CensusTest, PaperScaleTable1) {
  CensusOptions one_x = ScaledCensusOptions(1.0);
  EXPECT_EQ(one_x.num_persons, 25099u);
  EXPECT_EQ(one_x.num_households, 9820u);
  CensusOptions forty_x = ScaledCensusOptions(40.0);
  EXPECT_EQ(forty_x.num_persons, 1003960u);
  CensusOptions tenth = ScaledCensusOptions(2.0, 2510, 982);
  EXPECT_EQ(tenth.num_persons, 5020u);
  EXPECT_EQ(tenth.num_households, 1964u);
}

TEST(CensusTest, InputPersonsHaveNullHid) {
  auto data = GenerateCensus(SmallOptions());
  ASSERT_TRUE(data.ok());
  size_t hid_col = data->persons.schema().IndexOrDie("hid");
  for (size_t r = 0; r < data->persons.NumRows(); ++r) {
    EXPECT_TRUE(data->persons.IsNull(r, hid_col));
  }
}

TEST(CensusTest, GroundTruthJoinsCleanly) {
  auto data = GenerateCensus(SmallOptions());
  ASSERT_TRUE(data.ok());
  auto join = join_oracle::MaterializeJoin(data->persons_truth, data->housing,
                                           data->names);
  EXPECT_TRUE(join.ok()) << join.status();
}

TEST(CensusTest, GroundTruthSatisfiesAllTwelveDcs) {
  auto data = GenerateCensus(SmallOptions());
  ASSERT_TRUE(data.ok());
  std::vector<DenialConstraint> dcs = MakeCensusDcs(/*good_only=*/false);
  auto report = EvaluateDcError(dcs, data->persons_truth, "hid");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->error, 0.0) << report->Summary();
}

TEST(CensusTest, EveryHouseholdHasExactlyOneOwner) {
  auto data = GenerateCensus(SmallOptions());
  ASSERT_TRUE(data.ok());
  size_t hid_col = data->persons_truth.schema().IndexOrDie("hid");
  size_t rel_col = data->persons_truth.schema().IndexOrDie("Rel");
  auto owner_code = data->persons_truth.FindCode(rel_col, Value(kOwner));
  ASSERT_TRUE(owner_code.has_value());
  std::map<int64_t, int> owners;
  for (size_t r = 0; r < data->persons_truth.NumRows(); ++r) {
    if (data->persons_truth.GetCode(r, rel_col) == *owner_code) {
      owners[data->persons_truth.GetCode(r, hid_col)]++;
    }
  }
  EXPECT_EQ(owners.size(), data->housing.NumRows());
  for (const auto& [hid, count] : owners) EXPECT_EQ(count, 1);
}

TEST(CensusTest, AgesWithinDomain) {
  auto data = GenerateCensus(SmallOptions());
  ASSERT_TRUE(data.ok());
  size_t age_col = data->persons.schema().IndexOrDie("Age");
  for (size_t r = 0; r < data->persons.NumRows(); ++r) {
    int64_t age = data->persons.GetCode(r, age_col);
    EXPECT_GE(age, 0);
    EXPECT_LE(age, 114);
  }
}

TEST(CensusTest, DeterministicGivenSeed) {
  auto a = GenerateCensus(SmallOptions(7));
  auto b = GenerateCensus(SmallOptions(7));
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t r = 0; r < a->persons_truth.NumRows(); ++r) {
    for (size_t c = 0; c < a->persons_truth.NumColumns(); ++c) {
      EXPECT_EQ(a->persons_truth.GetValue(r, c), b->persons_truth.GetValue(r, c));
    }
  }
  auto c = GenerateCensus(SmallOptions(8));
  ASSERT_TRUE(c.ok());
  bool any_diff = false;
  for (size_t r = 0; r < a->persons_truth.NumRows() && !any_diff; ++r) {
    any_diff = !(a->persons_truth.GetValue(r, 1) == c->persons_truth.GetValue(r, 1));
  }
  EXPECT_TRUE(any_diff);
}

TEST(CensusTest, R2ColumnSweep) {
  for (size_t cols : {2u, 4u, 6u, 8u, 10u}) {
    CensusOptions options = SmallOptions();
    options.num_r2_columns = cols;
    auto data = GenerateCensus(options);
    ASSERT_TRUE(data.ok()) << cols;
    EXPECT_EQ(data->housing.NumColumns(), cols + 1);  // + key
    EXPECT_EQ(data->names.r2_attrs.size(), cols);
  }
  CensusOptions bad = SmallOptions();
  bad.num_r2_columns = 5;
  EXPECT_FALSE(GenerateCensus(bad).ok());
}

TEST(CensusTest, DivRegDeterminedBySt) {
  CensusOptions options = SmallOptions();
  options.num_r2_columns = 6;
  auto data = GenerateCensus(options);
  ASSERT_TRUE(data.ok());
  size_t st = data->housing.schema().IndexOrDie("St");
  size_t div = data->housing.schema().IndexOrDie("Div");
  size_t reg = data->housing.schema().IndexOrDie("Reg");
  std::map<int64_t, std::pair<int64_t, int64_t>> mapping;
  for (size_t r = 0; r < data->housing.NumRows(); ++r) {
    auto key = data->housing.GetCode(r, st);
    auto val = std::make_pair(data->housing.GetCode(r, div),
                              data->housing.GetCode(r, reg));
    auto [it, inserted] = mapping.emplace(key, val);
    EXPECT_EQ(it->second, val);  // St functionally determines Div and Reg
  }
}

// The generated bytes — every Rng draw of the household, member, Area and
// Tenure loops — pinned at 2,400 persons, seed 42, for the 2-column Housing
// the benchmarks use and the 10-column one whose extra draws interleave with
// the Area draws.
TEST(CensusTest, BytesArePinned) {
  struct Case {
    size_t r2_columns;
    uint64_t persons_truth;
    uint64_t housing;
  };
  const Case cases[] = {
      {2, 0x939b95a00a481efdULL, 0xde661b306d2e5672ULL},
      {10, 0x939b95a00a481efdULL, 0xa6a379d448c774ddULL},
  };
  for (const Case& c : cases) {
    CensusOptions options;
    options.num_persons = 2400;
    options.num_households = 940;
    options.num_r2_columns = c.r2_columns;
    options.seed = 42;
    auto data = GenerateCensus(options);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(TableDigest(data->persons_truth), c.persons_truth)
        << c.r2_columns << " R2 columns: persons_truth 0x" << std::hex
        << TableDigest(data->persons_truth);
    EXPECT_EQ(TableDigest(data->housing), c.housing)
        << c.r2_columns << " R2 columns: housing 0x" << std::hex
        << TableDigest(data->housing);
  }
}

// The same instances as BytesArePinned, pinned at the level of codes: every
// column's codes and every dictionary in code order, so a generator that
// numbered the same labels differently fails here.
TEST(CensusTest, CodesArePinned) {
  struct Case {
    size_t r2_columns;
    uint64_t persons_truth;
    uint64_t persons;
    uint64_t housing;
  };
  const Case cases[] = {
      {2, 0x63f9531f376748e2ULL, 0x990e3fff1c13f6e5ULL,
       0x51725aab58a08112ULL},
      {10, 0x63f9531f376748e2ULL, 0x990e3fff1c13f6e5ULL,
       0xbfb07babb246f3f0ULL},
  };
  for (const Case& c : cases) {
    CensusOptions options;
    options.num_persons = 2400;
    options.num_households = 940;
    options.num_r2_columns = c.r2_columns;
    options.seed = 42;
    auto data = GenerateCensus(options);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(CodeDigest(data->persons_truth), c.persons_truth)
        << c.r2_columns << " R2 columns: persons_truth 0x" << std::hex
        << CodeDigest(data->persons_truth);
    EXPECT_EQ(CodeDigest(data->persons), c.persons)
        << c.r2_columns << " R2 columns: persons 0x" << std::hex
        << CodeDigest(data->persons);
    EXPECT_EQ(CodeDigest(data->housing), c.housing)
        << c.r2_columns << " R2 columns: housing 0x" << std::hex
        << CodeDigest(data->housing);
  }
}

TEST(CensusTest, RejectsImpossibleSizes) {
  CensusOptions options;
  options.num_persons = 5;
  options.num_households = 10;
  EXPECT_FALSE(GenerateCensus(options).ok());
}

}  // namespace
}  // namespace datagen
}  // namespace cextend
