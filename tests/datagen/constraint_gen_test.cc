#include "datagen/constraint_gen.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "constraints/metrics.h"
#include "constraints/relationship.h"
#include "core/join_oracle.h"
#include "core/join_view.h"
#include "relational/predicate.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cextend {
namespace datagen {
namespace {

CensusData SmallData(uint64_t seed = 42) {
  CensusOptions options;
  options.num_persons = 2400;
  options.num_households = 940;
  options.seed = seed;
  auto data = GenerateCensus(options);
  CEXTEND_CHECK(data.ok());
  return std::move(data).value();
}

TEST(DcGenTest, TwelveDcsWithExpectedStructure) {
  std::vector<DenialConstraint> all = MakeCensusDcs(false);
  std::vector<DenialConstraint> good = MakeCensusDcs(true);
  // DC1-8 are range rules -> 16 conjunctive constraints; DC9-12 add 4 more.
  EXPECT_EQ(good.size(), 16u);
  EXPECT_EQ(all.size(), 20u);
  for (const DenialConstraint& dc : all) EXPECT_EQ(dc.arity(), 2);
  // The good set has no same-role DCs (no cliques): every DC pins t0 to
  // Owner and t1 to a different relationship.
  for (const DenialConstraint& dc : good) {
    EXPECT_TRUE(dc.name().find("DC9") == std::string::npos &&
                dc.name().find("DC12") == std::string::npos);
  }
}

TEST(DcGenTest, GroundTruthViolatesNothing) {
  CensusData data = SmallData();
  auto report =
      EvaluateDcError(MakeCensusDcs(false), data.persons_truth, "hid");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->error, 0.0) << report->Summary();
}

TEST(CcGenTest, GoodFamilyHasNoIntersectingPairs) {
  CensusData data = SmallData();
  CcFamilyOptions options;
  options.num_ccs = 120;
  options.intersecting = false;
  auto ccs = GenerateCcs(data, options);
  ASSERT_TRUE(ccs.ok()) << ccs.status();
  EXPECT_GE(ccs->size(), 100u);
  auto v = MakeJoinView(data.persons, data.housing, data.names);
  ASSERT_TRUE(v.ok());
  auto matrix = ClassifyAll(*ccs, v->schema(), data.housing.schema());
  ASSERT_TRUE(matrix.ok());
  for (size_t i = 0; i < ccs->size(); ++i) {
    for (size_t j = i + 1; j < ccs->size(); ++j) {
      EXPECT_NE(matrix->At(i, j), CcRelation::kIntersecting)
          << (*ccs)[i].ToString() << " vs " << (*ccs)[j].ToString();
    }
  }
}

TEST(CcGenTest, BadFamilyHasIntersectingPairs) {
  CensusData data = SmallData();
  CcFamilyOptions options;
  options.num_ccs = 120;
  options.intersecting = true;
  auto ccs = GenerateCcs(data, options);
  ASSERT_TRUE(ccs.ok());
  auto v = MakeJoinView(data.persons, data.housing, data.names);
  ASSERT_TRUE(v.ok());
  auto matrix = ClassifyAll(*ccs, v->schema(), data.housing.schema());
  ASSERT_TRUE(matrix.ok());
  size_t intersecting = 0;
  for (size_t i = 0; i < ccs->size(); ++i) {
    for (size_t j = i + 1; j < ccs->size(); ++j) {
      if (matrix->At(i, j) == CcRelation::kIntersecting) ++intersecting;
    }
  }
  EXPECT_GT(intersecting, 0u);
}

/// Per-row oracle: each CC's JoinCondition counted over the materialized
/// ground-truth join.
std::vector<int64_t> OracleTargets(
    const CensusData& data, const std::vector<CardinalityConstraint>& ccs) {
  auto truth = join_oracle::MaterializeJoin(data.persons_truth, data.housing,
                                            data.names);
  CEXTEND_CHECK(truth.ok()) << truth.status().ToString();
  std::vector<int64_t> targets;
  for (const CardinalityConstraint& cc : ccs) {
    auto pred = BoundPredicate::Bind(cc.JoinCondition(), *truth);
    CEXTEND_CHECK(pred.ok()) << pred.status().ToString();
    targets.push_back(static_cast<int64_t>(pred->CountMatches(*truth)));
  }
  return targets;
}

void ExpectOracleTargets(const CensusData& data,
                         const std::vector<CardinalityConstraint>& ccs) {
  const std::vector<int64_t> expected = OracleTargets(data, ccs);
  for (size_t i = 0; i < ccs.size(); ++i) {
    EXPECT_EQ(ccs[i].target, expected[i]) << ccs[i].ToString();
  }
}

TEST(CcGenTest, TargetsMatchGroundTruth) {
  for (uint64_t seed : {42u, 7u, 2024u}) {
    CensusData data = SmallData(seed);
    for (bool intersecting : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << (intersecting ? " bad" : " good"));
      CcFamilyOptions options;
      options.num_ccs = intersecting ? 1001 : 201;
      options.intersecting = intersecting;
      auto ccs = GenerateCcs(data, options);
      ASSERT_TRUE(ccs.ok()) << ccs.status();
      EXPECT_EQ(ccs->size(), options.num_ccs);
      ExpectOracleTargets(data, *ccs);
      auto truth = join_oracle::MaterializeJoin(data.persons_truth,
                                                data.housing, data.names);
      ASSERT_TRUE(truth.ok());
      auto report = EvaluateCcError(*ccs, truth.value());
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->num_exact, ccs->size());
    }
  }
}

// Conditions the generated families never contain: an `=` constant absent
// from the dictionary, IN lists (one with an absent value, one with none
// present), `!=`, a key condition, and empty conditions on either side.
TEST(CcGenTest, HandBuiltTargetsMatchGroundTruth) {
  CensusData data = SmallData();
  std::vector<CardinalityConstraint> ccs(8);
  ccs[0].r1_condition.Eq("Rel", Value("No such relationship"));
  ccs[0].r2_condition.Eq("Area", Value("A130"));
  ccs[1].r1_condition.In("Rel", {Value(kSpouse), Value(kPartner),
                                 Value("No such relationship")});
  ccs[1].r2_condition.In("Tenure", {Value("Rented"), Value("No-rent")});
  ccs[2].r1_condition.Between("Age", 20, 40);
  ccs[3].r2_condition.Eq("Area", Value("A007"));
  ccs[4].r1_condition.In("Rel", {Value("absent 1"), Value("absent 2")});
  ccs[5].r1_condition.Ne("Rel", Value(kOwner)).Eq("MultiLing", Value(int64_t{1}));
  ccs[5].r2_condition.Ne("Tenure", Value("absent"));
  ccs[6].r1_condition.Le("pid", Value(int64_t{1000}));
  ccs[6].r2_condition.In("Area", {Value("A001"), Value("A250"), Value("A002")});
  for (size_t i = 0; i < ccs.size(); ++i) ccs[i].name = StrFormat("H%zu", i);
  ASSERT_TRUE(CountCcTargets(data.persons_truth, data.housing, data.names, &ccs)
                  .ok());
  ExpectOracleTargets(data, ccs);
  EXPECT_EQ(ccs[0].target, 0);
  EXPECT_EQ(ccs[4].target, 0);
  EXPECT_EQ(ccs[7].target,
            static_cast<int64_t>(data.persons_truth.NumRows()));
  EXPECT_GT(ccs[1].target, 0);
  EXPECT_GT(ccs[3].target, 0);
}

// The counting needs neither dense nor sorted keys: R2 keys (and the FKs
// that name them) are relabelled to sparse values from the smallest non-NULL
// int64 up to INT64_MAX, the R1 rows are shuffled, and an R2 row of its own
// class that no R1 row joins is added. Both families' targets stay what they
// were on the generated instance and agree with the oracle.
TEST(CcGenTest, TargetsIgnoreKeyValuesAndRowOrder) {
  CensusData data = SmallData();
  std::vector<std::vector<CardinalityConstraint>> families;
  for (bool intersecting : {false, true}) {
    CcFamilyOptions options;
    options.num_ccs = intersecting ? 1001 : 201;
    options.intersecting = intersecting;
    auto ccs = GenerateCcs(data, options);
    ASSERT_TRUE(ccs.ok()) << ccs.status();
    CardinalityConstraint unjoined;
    unjoined.name = "Unjoined";
    unjoined.r1_condition.Eq("Rel", Value(kOwner));
    unjoined.r2_condition.Eq("Tenure", Value("Vacant"));
    ccs->push_back(std::move(unjoined));
    families.push_back(std::move(ccs).value());
  }

  const int64_t max = std::numeric_limits<int64_t>::max();
  auto sparse = [&](int64_t key) -> int64_t {
    if (key == 1) return kNullCode + 1;
    switch (key % 3) {
      case 0:
        return max - key;
      case 1:
        return -(key << 20);
      default:
        return key * 1000003;
    }
  };
  Table housing = data.housing.Clone();
  const size_t key2 = housing.schema().IndexOrDie("hid");
  for (size_t r = 0; r < housing.NumRows(); ++r) {
    housing.SetCode(r, key2, sparse(housing.GetCode(r, key2)));
  }
  ASSERT_TRUE(housing.AppendRow({Value(int64_t{5}), Value("Vacant"),
                                 Value("A001")}).ok());

  const Table& truth = data.persons_truth;
  std::vector<size_t> order(truth.NumRows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  Rng rng(11);
  rng.Shuffle(order);
  const size_t fk = truth.schema().IndexOrDie("hid");
  std::vector<std::vector<int64_t>> columns(truth.NumColumns());
  std::vector<std::shared_ptr<Dictionary>> dicts;
  for (size_t c = 0; c < truth.NumColumns(); ++c) {
    dicts.push_back(truth.dictionary(c));
    for (size_t r : order) {
      const int64_t code = truth.GetCode(r, c);
      columns[c].push_back(c == fk ? sparse(code) : code);
    }
  }
  CensusData relabelled{data.persons.Clone(), std::move(housing),
                        Table(truth.schema(), dicts, std::move(columns)),
                        data.names};

  for (std::vector<CardinalityConstraint>& ccs : families) {
    SCOPED_TRACE(testing::Message() << ccs.size() << " CCs");
    ASSERT_TRUE(CountCcTargets(data.persons_truth, data.housing, data.names,
                               &ccs)
                    .ok());
    std::vector<int64_t> dense_targets;
    for (const CardinalityConstraint& cc : ccs) {
      dense_targets.push_back(cc.target);
    }
    ASSERT_TRUE(CountCcTargets(relabelled.persons_truth, relabelled.housing,
                               relabelled.names, &ccs)
                    .ok());
    ExpectOracleTargets(relabelled, ccs);
    for (size_t i = 0; i < ccs.size(); ++i) {
      EXPECT_EQ(ccs[i].target, dense_targets[i]) << ccs[i].ToString();
    }
    EXPECT_EQ(ccs.back().target, 0);
  }
}

TEST(CcGenTest, TargetsNeedAJoinableTruth) {
  CensusData data = SmallData();
  const size_t fk = data.persons_truth.schema().IndexOrDie("hid");
  std::vector<CardinalityConstraint> ccs(1);
  ccs[0].r1_condition.Eq("Rel", Value(kOwner));

  Table null_fk = data.persons_truth.Clone();
  null_fk.SetCode(17, fk, kNullCode);
  CensusData with_null{data.persons.Clone(), data.housing.Clone(),
                       std::move(null_fk), data.names};
  EXPECT_EQ(CountCcTargets(with_null.persons_truth, with_null.housing,
                           with_null.names, &ccs)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(GenerateCcs(with_null, CcFamilyOptions()).status().code(),
            StatusCode::kFailedPrecondition);

  Table dangling_fk = data.persons_truth.Clone();
  dangling_fk.SetCode(17, fk, 1000000);
  CensusData with_dangling{data.persons.Clone(), data.housing.Clone(),
                           std::move(dangling_fk), data.names};
  EXPECT_EQ(CountCcTargets(with_dangling.persons_truth, with_dangling.housing,
                           with_dangling.names, &ccs)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(GenerateCcs(with_dangling, CcFamilyOptions()).status().code(),
            StatusCode::kFailedPrecondition);

  // NULL and duplicate R2 keys are refused by PairSchema::Validate.
  const size_t key2 = data.housing.schema().IndexOrDie("hid");
  for (int64_t bad_key : {kNullCode, data.housing.GetCode(0, key2)}) {
    Table bad_housing = data.housing.Clone();
    bad_housing.SetCode(1, key2, bad_key);
    EXPECT_EQ(CountCcTargets(data.persons_truth, bad_housing, data.names, &ccs)
                  .code(),
              StatusCode::kInvalidArgument);
  }

  // The join view has no FK column: a condition on it does not bind there.
  ccs[0].r1_condition.Eq("hid", Value(int64_t{1}));
  EXPECT_EQ(CountCcTargets(data.persons_truth, data.housing, data.names, &ccs)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CcGenTest, ConditionsAreDistinct) {
  CensusData data = SmallData();
  CcFamilyOptions options;
  options.num_ccs = 200;
  auto ccs = GenerateCcs(data, options);
  ASSERT_TRUE(ccs.ok());
  std::set<std::string> signatures;
  for (const CardinalityConstraint& cc : *ccs) {
    signatures.insert(cc.r1_condition.ToString() + "|" +
                      cc.r2_condition.ToString());
  }
  EXPECT_EQ(signatures.size(), ccs->size());
}

TEST(CcGenTest, AreaOnlyAndPairConditionsBothPresent) {
  CensusData data = SmallData();
  CcFamilyOptions options;
  options.num_ccs = 300;
  auto ccs = GenerateCcs(data, options);
  ASSERT_TRUE(ccs.ok());
  size_t pair_conds = 0, area_only = 0;
  for (const CardinalityConstraint& cc : *ccs) {
    bool has_tenure = false;
    for (const Atom& atom : cc.r2_condition.atoms()) {
      if (atom.column == "Tenure") has_tenure = true;
    }
    if (has_tenure) ++pair_conds;
    else ++area_only;
  }
  EXPECT_GT(pair_conds, 0u);
  EXPECT_GT(area_only, 0u);
}

}  // namespace
}  // namespace datagen
}  // namespace cextend
