#include "core/hybrid.h"

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

TEST(HybridTest, PaperExampleSolvesAllCcs) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, ex.ccs, ex.dcs, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // CC3 (Age<=24) intersects CC1/CC2 (Rel=Owner) and CC4 (MultiLing=1)
  // pairwise (different attributes, neither contained): by Definitions
  // 4.2-4.4 every CC of the running example is routed to the ILP.
  EXPECT_EQ(result->stats.ccs_to_ilp, ex.ccs.size());
  auto report = EvaluateCcError(ex.ccs, v_join);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, ex.ccs.size()) << report->Summary();
  EXPECT_TRUE(result->invalid_rows.empty());
}

TEST(HybridTest, MixedSetSplitsBetweenPaths) {
  PaperExample ex = MakePaperExample();
  // A clean CC (Rel=Spouse: disjoint from both intersecting Owner CCs) plus
  // two genuinely intersecting CCs (Owner vs Age<=30 overlap on owners 3/4).
  std::vector<CardinalityConstraint> ccs;
  {
    CardinalityConstraint clean;
    clean.name = "spouses_chicago";
    clean.r1_condition.Eq("Rel", Value("Spouse"));
    clean.r2_condition.Eq("Area", Value("Chicago"));
    clean.target = 1;
    ccs.push_back(clean);
    CardinalityConstraint owners = ex.ccs[0];  // Rel=Owner, Chicago, 4
    ccs.push_back(owners);
    CardinalityConstraint young;
    young.name = "young_chicago";
    young.r1_condition.In("Rel", {Value("Owner"), Value("Child")})
        .Le("Age", Value(int64_t{25}));
    young.r2_condition.Eq("Area", Value("Chicago"));
    young.target = 4;  // owners 3,4 and the two children
    ccs.push_back(young);
  }
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, ccs, ex.dcs, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.ccs_to_hasse, 1u);
  EXPECT_EQ(result->stats.ccs_to_ilp, 2u);
  auto report = EvaluateCcError(ccs, v_join);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_exact, ccs.size()) << report->Summary();
}

TEST(HybridTest, ForceIlpRoutesEverythingToIlp) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  options.force_ilp = true;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, ex.ccs, ex.dcs, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.ccs_to_hasse, 0u);
  EXPECT_EQ(result->stats.ccs_to_ilp, ex.ccs.size());
}

TEST(HybridTest, NonIntersectingSetSkipsIlp) {
  PaperExample ex = MakePaperExample();
  std::vector<CardinalityConstraint> ccs = {ex.ccs[0], ex.ccs[1]};
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, ccs, ex.dcs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.ccs_to_ilp, 0u);
  EXPECT_EQ(result->stats.ccs_to_hasse, 2u);
  EXPECT_EQ(result->stats.ilp.num_variables, 0u);
}

TEST(HybridTest, DuplicateCcsDropped) {
  PaperExample ex = MakePaperExample();
  std::vector<CardinalityConstraint> ccs = {ex.ccs[0], ex.ccs[0], ex.ccs[1]};
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, ccs, ex.dcs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.duplicate_ccs_dropped, 1u);
}

TEST(HybridTest, ContradictoryDuplicatesGoToIlp) {
  PaperExample ex = MakePaperExample();
  CardinalityConstraint conflicting = ex.ccs[0];
  conflicting.target = ex.ccs[0].target + 1;  // same condition, other target
  std::vector<CardinalityConstraint> ccs = {ex.ccs[0], conflicting};
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, ccs, ex.dcs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.ccs_to_ilp, 2u);
  // The slack absorbs the contradiction (one unit of deviation).
  EXPECT_NEAR(result->stats.ilp.slack_total, 1.0, 1e-6);
}

TEST(HybridTest, EmptyCcSetStillFillsRows) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto result = RunHybridPhase1(v_join, ex.housing, ex.names, {}, ex.dcs, options);
  ASSERT_TRUE(result.ok());
  for (size_t r = 0; r < v_join.NumRows(); ++r) {
    EXPECT_FALSE(v_join.IsNull(r, v_join.schema().IndexOrDie("Area")));
  }
}

// Phase I binds every DC once, for the final fill and for phase II's oracle
// builds: a DC that does not bind fails the run instead of being skipped.
TEST(HybridTest, UnbindableDcFailsPhase1) {
  PaperExample ex = MakePaperExample();
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  std::vector<DenialConstraint> dcs = ex.dcs;
  DenialConstraint ordered_string(2, "ordered-string");
  ordered_string.Unary(0, "Rel", CompareOp::kLt, Value("Owner"));
  dcs.push_back(std::move(ordered_string));
  auto result =
      RunHybridPhase1(v_join, ex.housing, ex.names, ex.ccs, dcs, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ordered-string"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace cextend
