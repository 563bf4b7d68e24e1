// Differential test: the compiled ClassifyAll against the map-based
// reference oracle (relationship_oracle.h), entry for entry, on the census
// CC families and on seeded random families that hit every AttrSet kind,
// empty and unknown sets, and attribute names shared by R1 and R2.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "constraints/relationship.h"
#include "constraints/relationship_oracle.h"
#include "core/join_view.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "util/rng.h"

namespace cextend {
namespace {

/// Runs both classifiers and reports every mismatching entry (at most a
/// few, to keep failures readable).
void ExpectMatchesOracle(const std::vector<CardinalityConstraint>& ccs,
                         const Schema& r1_schema, const Schema& r2_schema) {
  auto got = ClassifyAll(ccs, r1_schema, r2_schema);
  auto want = relationship_oracle::ClassifyAll(ccs, r1_schema, r2_schema);
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!got.ok()) return;
  const size_t n = ccs.size();
  ASSERT_EQ(got->size(), n);
  ASSERT_EQ(got->matrix.size(), n * n);
  int reported = 0;
  for (size_t i = 0; i < n && reported < 5; ++i) {
    for (size_t j = 0; j < n && reported < 5; ++j) {
      if (got->At(i, j) == (*want)[i * n + j]) continue;
      ++reported;
      ADD_FAILURE() << "(" << i << ", " << j << "): got "
                    << CcRelationToString(got->At(i, j)) << ", oracle "
                    << CcRelationToString((*want)[i * n + j]) << "\n  "
                    << ccs[i].ToString() << "\n  " << ccs[j].ToString();
    }
  }
}

class CensusFamilyTest : public ::testing::TestWithParam<bool> {};

TEST_P(CensusFamilyTest, MatchesOracle) {
  datagen::CensusOptions census = datagen::ScaledCensusOptions(0.2);
  auto data = datagen::GenerateCensus(census);
  ASSERT_TRUE(data.ok()) << data.status();
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  ASSERT_TRUE(v.ok()) << v.status();
  for (size_t num_ccs : {64, 201, 1001}) {
    SCOPED_TRACE(num_ccs);
    datagen::CcFamilyOptions options;
    options.num_ccs = num_ccs;
    options.intersecting = GetParam();
    auto ccs = datagen::GenerateCcs(*data, options);
    ASSERT_TRUE(ccs.ok()) << ccs.status();
    ExpectMatchesOracle(*ccs, v->schema(), data->housing.schema());
  }
}

INSTANTIATE_TEST_SUITE_P(GoodAndBad, CensusFamilyTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Bad" : "Good";
                         });

// Random families. "Tag" (categorical) and "Size" (integer on R1,
// categorical on R2) appear on both sides, so merged conditions collide by
// name; Size also mixes interval and categorical sets under one name.
Schema RandomR1Schema() {
  return Schema{{"Age", DataType::kInt64},
                {"Multi", DataType::kInt64},
                {"Rel", DataType::kString},
                {"Tag", DataType::kString},
                {"Size", DataType::kInt64}};
}
Schema RandomR2Schema() {
  return Schema{{"Area", DataType::kString},
                {"Rooms", DataType::kInt64},
                {"Tag", DataType::kString},
                {"Size", DataType::kString}};
}

/// Small integer domain so intervals overlap, nest and miss each other;
/// occasionally a domain edge.
int64_t RandomInt(Rng& rng) {
  switch (rng.UniformInt(0, 19)) {
    case 0:
      return std::numeric_limits<int64_t>::max();
    case 1:
      return std::numeric_limits<int64_t>::min();
    default:
      return rng.UniformInt(0, 9);
  }
}

Value RandomCategory(Rng& rng) {
  static const char* const kWords[] = {"a", "b", "c", "d"};
  return Value(kWords[rng.UniformInt(0, 3)]);
}

void AddIntAtom(Rng& rng, Predicate& p, const std::string& col) {
  switch (rng.UniformInt(0, 8)) {
    case 0:
      p.Eq(col, Value(RandomInt(rng)));
      break;
    case 1:
      p.Ne(col, Value(RandomInt(rng)));  // unknown
      break;
    case 2:
      p.Lt(col, Value(RandomInt(rng)));
      break;
    case 3:
      p.Ge(col, Value(RandomInt(rng)));
      break;
    case 4:
      p.Gt(col, Value(RandomInt(rng)));
      break;
    case 5:
      p.Le(col, Value(RandomInt(rng)));
      break;
    case 6: {
      // Between, sometimes inverted (empty).
      int64_t lo = rng.UniformInt(0, 9);
      int64_t hi = rng.UniformInt(0, 9);
      p.Between(col, lo, hi);
      break;
    }
    case 7:
      p.In(col, {Value(RandomInt(rng)), Value(RandomInt(rng))});  // unknown
      break;
    default:
      p.Eq(col, RandomCategory(rng));  // wrong value type: unknown
      break;
  }
}

void AddCategoryAtom(Rng& rng, Predicate& p, const std::string& col) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
    case 1:
      p.Eq(col, RandomCategory(rng));
      break;
    case 2:
      p.Ne(col, RandomCategory(rng));
      break;
    case 3: {
      std::vector<Value> values;
      int64_t count = rng.UniformInt(0, 3);  // 0: the empty set
      for (int64_t k = 0; k < count; ++k) values.push_back(RandomCategory(rng));
      p.In(col, std::move(values));
      break;
    }
    case 4:
      p.Ne(col, Value(RandomInt(rng)));  // wrong value type: unknown
      break;
    default:
      p.In(col, {RandomCategory(rng), RandomCategory(rng)});
      break;
  }
}

Predicate RandomCondition(Rng& rng, const Schema& schema) {
  Predicate p;
  int64_t atoms = rng.UniformInt(0, 3);
  for (int64_t k = 0; k < atoms; ++k) {
    const ColumnSpec& column = schema.column(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(schema.NumColumns()) - 1)));
    if (column.type == DataType::kInt64) {
      AddIntAtom(rng, p, column.name);
    } else {
      AddCategoryAtom(rng, p, column.name);
    }
  }
  return p;
}

/// Conditions are often reused from earlier CCs, so identical R1 (and R2)
/// conditions, duplicates and nesting are common.
std::vector<CardinalityConstraint> RandomFamily(uint64_t seed, size_t n) {
  Rng rng(seed);
  const Schema r1 = RandomR1Schema();
  const Schema r2 = RandomR2Schema();
  std::vector<CardinalityConstraint> ccs;
  for (size_t i = 0; i < n; ++i) {
    CardinalityConstraint cc;
    cc.name = "CC" + std::to_string(i);
    const bool reuse_r1 = !ccs.empty() && rng.Bernoulli(0.5);
    const bool reuse_r2 = !ccs.empty() && rng.Bernoulli(0.3);
    auto pick = [&]() -> const CardinalityConstraint& {
      return ccs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ccs.size()) - 1))];
    };
    cc.r1_condition = reuse_r1 ? pick().r1_condition : RandomCondition(rng, r1);
    cc.r2_condition = reuse_r2 ? pick().r2_condition : RandomCondition(rng, r2);
    // Sometimes narrow a reused condition by one more atom.
    if (reuse_r1 && rng.Bernoulli(0.3)) {
      AddIntAtom(rng, cc.r1_condition, "Age");
    }
    cc.target = 1;
    ccs.push_back(std::move(cc));
  }
  return ccs;
}

TEST(RelationshipOracleTest, RandomFamiliesMatchOracle) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    ExpectMatchesOracle(RandomFamily(seed, 80), RandomR1Schema(),
                        RandomR2Schema());
  }
}

TEST(RelationshipOracleTest, RandomFamiliesCoverEveryRelation) {
  // Guards the generator: a family that never produces some relation would
  // make the comparison above vacuous for it.
  std::vector<int> seen(5, 0);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto matrix =
        ClassifyAll(RandomFamily(seed, 80), RandomR1Schema(), RandomR2Schema());
    ASSERT_TRUE(matrix.ok()) << matrix.status();
    for (size_t i = 0; i < matrix->size(); ++i) {
      for (size_t j = i + 1; j < matrix->size(); ++j) {
        ++seen[static_cast<size_t>(matrix->At(i, j))];
      }
    }
  }
  for (size_t rel = 0; rel < seen.size(); ++rel) {
    EXPECT_GT(seen[rel], 0)
        << CcRelationToString(static_cast<CcRelation>(rel));
  }
}

}  // namespace
}  // namespace cextend
