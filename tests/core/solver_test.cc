#include "core/solver.h"

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/baseline.h"
#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

TEST(SolverTest, PaperRunningExampleEndToEnd) {
  PaperExample ex = MakePaperExample();
  auto solution = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs,
                                  ex.dcs, {});
  ASSERT_TRUE(solution.ok()) << solution.status();
  // All CCs satisfied (the instance is realizable: Figure 3).
  auto cc_report = EvaluateCcError(ex.ccs, solution->v_join);
  ASSERT_TRUE(cc_report.ok());
  EXPECT_EQ(cc_report->num_exact, ex.ccs.size()) << cc_report->Summary();
  // All DCs satisfied (guaranteed by Prop. 5.5).
  auto dc_report = EvaluateDcError(ex.dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0) << dc_report->Summary();
  // Join identity.
  auto mismatches = CountJoinMismatches(solution->r1_hat, "hid",
                                        solution->r2_hat, "hid",
                                        solution->v_join, {"Area"});
  ASSERT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(SolverTest, StatsArePopulated) {
  PaperExample ex = MakePaperExample();
  auto solution = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs,
                                  ex.dcs, {});
  ASSERT_TRUE(solution.ok());
  const SolveStats& stats = solution->stats;
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.phase1_seconds, 0.0);
  EXPECT_GE(stats.phase2_seconds, 0.0);
  EXPECT_EQ(stats.phase1.ccs_to_hasse + stats.phase1.ccs_to_ilp,
            ex.ccs.size());
  EXPECT_FALSE(stats.Summary().empty());
  EXPECT_FALSE(stats.BreakdownTable().empty());
}

TEST(SolverTest, DeterministicGivenSeed) {
  PaperExample ex = MakePaperExample();
  SolverOptions options;
  options.seed = 1234;
  auto a = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs, ex.dcs,
                           options);
  auto b = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs, ex.dcs,
                           options);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t hid_col = a->r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < a->r1_hat.NumRows(); ++r) {
    EXPECT_EQ(a->r1_hat.GetCode(r, hid_col), b->r1_hat.GetCode(r, hid_col));
  }
}

TEST(SolverTest, NoConstraintsStillCompletes) {
  PaperExample ex = MakePaperExample();
  auto solution =
      SolveCExtension(ex.persons, ex.housing, ex.names, {}, {}, {});
  ASSERT_TRUE(solution.ok());
  size_t hid_col = solution->r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < solution->r1_hat.NumRows(); ++r) {
    EXPECT_FALSE(solution->r1_hat.IsNull(r, hid_col));
  }
}

TEST(SolverTest, DcOnlyInstanceKeepsDcErrorZero) {
  PaperExample ex = MakePaperExample();
  auto solution =
      SolveCExtension(ex.persons, ex.housing, ex.names, {}, ex.dcs, {});
  ASSERT_TRUE(solution.ok());
  auto dc_report = EvaluateDcError(ex.dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0);
}

TEST(SolverTest, ValidatesSchema) {
  PaperExample ex = MakePaperExample();
  PairSchema bad = ex.names;
  bad.fk = "wrong";
  EXPECT_FALSE(
      SolveCExtension(ex.persons, ex.housing, bad, ex.ccs, ex.dcs, {}).ok());
}

// A DC may read only R1's key and A columns: one on a B column (Area) or the
// FK (hid) is refused before phase 1, naming the DC and the column, by the
// planner and by both baselines.
TEST(SolverTest, RejectsDcReadingBOrFkColumns) {
  PaperExample ex = MakePaperExample();
  for (const char* column : {"Area", "hid"}) {
    std::vector<DenialConstraint> dcs = ex.dcs;
    DenialConstraint dc(2, std::string("reads-") + column);
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Binary(0, column, CompareOp::kEq, 1, column);
    dcs.push_back(std::move(dc));
    std::vector<Status> statuses = {
        PlanCExtension(ex.persons, ex.housing, ex.names, ex.ccs, dcs).status(),
        SolveBaseline(ex.persons, ex.housing, ex.names, ex.ccs, dcs,
                      BaselineKind::kPlain)
            .status(),
        SolveBaseline(ex.persons, ex.housing, ex.names, ex.ccs, dcs,
                      BaselineKind::kWithMarginals)
            .status()};
    for (const Status& status : statuses) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << column;
      EXPECT_NE(status.message().find(std::string("reads-") + column),
                std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(std::string("column ") + column),
                std::string::npos)
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace cextend
