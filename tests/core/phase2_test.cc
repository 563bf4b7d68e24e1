#include "core/phase2.h"

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/conflict.h"
#include "core/hybrid.h"
#include "core/join_oracle.h"
#include "test_util.h"
#include "util/fault_injection.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;
using testing_fixtures::Phase2Tables;
using testing_fixtures::PlanAndExecutePhase2;

/// Runs phase I (hybrid) then phase II on the paper example and returns the
/// phase-II result alongside the completed view.
struct FullRun {
  Table v_join;
  Phase2Tables phase2;
};

FullRun RunBoth(const PaperExample& ex, const Phase2Options& p2_options) {
  auto v = MakeJoinView(ex.persons, ex.housing, ex.names);
  CEXTEND_CHECK(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions options;
  auto phase1 = RunHybridPhase1(v_join, ex.housing, ex.names, ex.ccs, ex.dcs, options);
  CEXTEND_CHECK(phase1.ok());
  auto phase2 =
      PlanAndExecutePhase2(v_join, ex.persons, ex.housing, ex.names, ex.dcs,
                           ex.ccs, phase1->invalid_rows, p2_options);
  CEXTEND_CHECK(phase2.ok()) << phase2.status().ToString();
  return FullRun{std::move(v_join), std::move(phase2).value()};
}

TEST(Phase2Test, PaperExampleSatisfiesAllDcs) {
  PaperExample ex = MakePaperExample();
  FullRun run = RunBoth(ex, {});
  auto dc_report = EvaluateDcError(ex.dcs, run.phase2.r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0) << dc_report->Summary();
  EXPECT_EQ(dc_report->num_violations, 0u);
}

TEST(Phase2Test, JoinIdentityHolds) {
  // Proposition 5.5: r1_hat ⋈ r2_hat == v_join.
  PaperExample ex = MakePaperExample();
  FullRun run = RunBoth(ex, {});
  auto mismatches =
      CountJoinMismatches(run.phase2.r1_hat, "hid", run.phase2.r2_hat, "hid",
                          run.v_join, {"Area"});
  ASSERT_TRUE(mismatches.ok()) << mismatches.status();
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(Phase2Test, EveryFkAssigned) {
  PaperExample ex = MakePaperExample();
  FullRun run = RunBoth(ex, {});
  size_t hid_col = run.phase2.r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < run.phase2.r1_hat.NumRows(); ++r) {
    EXPECT_FALSE(run.phase2.r1_hat.IsNull(r, hid_col));
  }
}

TEST(Phase2Test, NewR2TuplesCarryComboValues) {
  // Force skips: only 2 Chicago homes for 4 owners that must live apart.
  PaperExample ex = MakePaperExample();
  Table small_housing = ex.housing.CloneEmpty();
  CEXTEND_CHECK(small_housing.AppendRow({Value(1), Value("Chicago")}).ok());
  CEXTEND_CHECK(small_housing.AppendRow({Value(2), Value("Chicago")}).ok());
  CEXTEND_CHECK(small_housing.AppendRow({Value(5), Value("NYC")}).ok());
  auto v = MakeJoinView(ex.persons, small_housing, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions p1;
  auto phase1 =
      RunHybridPhase1(v_join, small_housing, ex.names, ex.ccs, ex.dcs, p1);
  ASSERT_TRUE(phase1.ok());
  auto phase2 =
      PlanAndExecutePhase2(v_join, ex.persons, small_housing, ex.names,
                           ex.dcs, ex.ccs, phase1->invalid_rows, {});
  ASSERT_TRUE(phase2.ok());
  EXPECT_GT(phase2->stats.new_r2_tuples, 0u);
  EXPECT_EQ(phase2->r2_hat.NumRows(),
            small_housing.NumRows() + phase2->stats.new_r2_tuples);
  // Fresh keys are unique and the DCs still hold.
  auto dc_report = EvaluateDcError(ex.dcs, phase2->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0);
  auto mismatches = CountJoinMismatches(phase2->r1_hat, "hid", phase2->r2_hat,
                                        "hid", v_join, {"Area"});
  ASSERT_TRUE(mismatches.ok()) << mismatches.status();
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(Phase2Test, RandomAssignmentIgnoresDcs) {
  // The baseline's phase II: FK values are random candidates, so owner-owner
  // collisions appear with overwhelming probability on this crowded input.
  PaperExample ex = MakePaperExample();
  Table two_homes = ex.housing.CloneEmpty();
  CEXTEND_CHECK(two_homes.AppendRow({Value(1), Value("Chicago")}).ok());
  CEXTEND_CHECK(two_homes.AppendRow({Value(5), Value("NYC")}).ok());
  auto v = MakeJoinView(ex.persons, two_homes, ex.names);
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  HybridOptions p1;
  p1.leftover_mode = LeftoverMode::kRandom;
  auto phase1 = RunHybridPhase1(v_join, two_homes, ex.names, {}, {}, p1);
  ASSERT_TRUE(phase1.ok());
  Phase2Options p2;
  p2.random_assignment = true;
  p2.seed = 11;
  auto phase2 = PlanAndExecutePhase2(v_join, ex.persons, two_homes, ex.names,
                                     ex.dcs, {}, phase1->invalid_rows, p2);
  ASSERT_TRUE(phase2.ok());
  auto dc_report = EvaluateDcError(ex.dcs, phase2->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_GT(dc_report->error, 0.0);  // six owners, two homes: collisions
}

TEST(Phase2Test, ParallelColoringMatchesDcGuarantee) {
  PaperExample ex = MakePaperExample();
  Phase2Options p2;
  p2.num_threads = 4;
  FullRun run = RunBoth(ex, p2);
  auto dc_report = EvaluateDcError(ex.dcs, run.phase2.r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0);
  auto mismatches =
      CountJoinMismatches(run.phase2.r1_hat, "hid", run.phase2.r2_hat, "hid",
                          run.v_join, {"Area"});
  ASSERT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(Phase2Test, IndexedAndNaiveOraclesProduceIdenticalOutput) {
  // The indexed conflict oracle must not change phase-II semantics: same
  // seed, same FK assignment, same new tuples as the brute-force oracle.
  // The oracle.build fault abandons every indexed build, so the second run
  // colors through the naive oracle alone.
  if (!FaultInjection::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  PaperExample ex = MakePaperExample();
  FullRun indexed = RunBoth(ex, {});
  EXPECT_EQ(indexed.phase2.stats.naive_oracle_fallbacks, 0u);
  FullRun naive = [&] {
    ScopedFaults faults("oracle.build");
    return RunBoth(ex, {});
  }();
  EXPECT_GT(naive.phase2.stats.naive_oracle_fallbacks, 0u);
  size_t hid_col = indexed.phase2.r1_hat.schema().IndexOrDie("hid");
  ASSERT_EQ(indexed.phase2.r1_hat.NumRows(), naive.phase2.r1_hat.NumRows());
  for (size_t r = 0; r < indexed.phase2.r1_hat.NumRows(); ++r) {
    EXPECT_EQ(indexed.phase2.r1_hat.GetCode(r, hid_col),
              naive.phase2.r1_hat.GetCode(r, hid_col))
        << "row " << r;
  }
  EXPECT_EQ(indexed.phase2.r2_hat.NumRows(), naive.phase2.r2_hat.NumRows());
  EXPECT_EQ(indexed.phase2.stats.skipped_vertices,
            naive.phase2.stats.skipped_vertices);
}

TEST(Phase2Test, InvalidTupleRepairHonorsArityFourDcs) {
  // Regression: the old solveInvalidTuples only conflict-checked DCs of
  // arity == 3, so an arity-4 DC let repaired rows pile into one key. Five
  // "Senior" rows (all invalid) and a 4-ary "no four seniors share a house"
  // DC must spread across >= 2 houses.
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"hid", DataType::kInt64}};
  Table persons{persons_schema};
  for (int64_t i = 1; i <= 5; ++i) {
    CEXTEND_CHECK(
        persons.AppendRow({Value(i), Value("Senior"), Value::Null()}).ok());
  }
  Schema housing_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table housing{housing_schema};
  for (int64_t h = 1; h <= 3; ++h) {
    CEXTEND_CHECK(housing.AppendRow({Value(h), Value("X")}).ok());
  }
  auto names = PairSchema::Infer(persons, housing, "pid", "hid", "hid");
  ASSERT_TRUE(names.ok());
  DenialConstraint dc(4, "no-4-seniors");
  for (int var = 0; var < 4; ++var) {
    dc.Unary(var, "Rel", CompareOp::kEq, Value("Senior"));
  }
  std::vector<DenialConstraint> dcs;
  dcs.push_back(std::move(dc));
  auto v = MakeJoinView(persons, housing, names.value());
  ASSERT_TRUE(v.ok());
  Table v_join = std::move(v).value();
  std::vector<uint32_t> invalid = {0, 1, 2, 3, 4};
  auto phase2 = PlanAndExecutePhase2(v_join, persons, housing, names.value(),
                                     dcs, {}, invalid, {});
  ASSERT_TRUE(phase2.ok()) << phase2.status().ToString();
  auto report = EvaluateDcError(dcs, phase2->r1_hat, "hid");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_violations, 0u) << report->Summary();
  EXPECT_EQ(report->error, 0.0);
  auto mismatches = CountJoinMismatches(phase2->r1_hat, "hid", phase2->r2_hat,
                                        "hid", v_join, {"Area"});
  ASSERT_TRUE(mismatches.ok()) << mismatches.status();
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(ConflictOracleTest, PaperExample53Degrees) {
  // Build the Chicago partition of Figure 7 (solid edges): tuples 1..7 with
  // owner-owner edges among the four owners plus the DC_O_S/DC_O_C pairs.
  PaperExample ex = MakePaperExample();
  // V_join per Figure 5.
  Table persons = ex.persons.Clone();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  for (size_t r = 0; r < persons.NumRows(); ++r)
    persons.SetCode(r, hid_col, hids[r]);
  auto v = join_oracle::MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto bound = BindAll(ex.dcs, v.value());
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(v.value(), bound.value());
  // Chicago rows: 0..6 (pids 1..7).
  auto oracle = PartitionConflictOracle::Build(v.value(), classes,
                                               {0, 1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  // Owners {0,1,2,3} form a clique (degree >= 3 each).
  for (size_t owner : {0u, 1u, 2u, 3u}) {
    EXPECT_GE(oracle->Degree(owner), 3);
  }
  // Spouse (4, age 24) conflicts with the 75-year-old owners (0 and 1) via
  // DC_O_S_low: 24 < 75-50.
  EXPECT_TRUE(oracle->PairConflicts(4, 0));
  EXPECT_TRUE(oracle->PairConflicts(4, 1));
  EXPECT_FALSE(oracle->PairConflicts(4, 2));  // 24 vs owner 25: fine
  // Children (5, 6, age 10) conflict with multi-lingual owner 1 (75): age
  // 10 < 75-50. Owner 3 (25, multi-lingual) is fine: 10 is inside
  // [25-50, 25-12] = [-25, 13].
  EXPECT_TRUE(oracle->PairConflicts(5, 1));
  EXPECT_FALSE(oracle->PairConflicts(5, 3));
  EXPECT_FALSE(oracle->PairConflicts(5, 0));  // owner 0 not multi-lingual
  EXPECT_FALSE(oracle->PairConflicts(5, 6));  // two children never conflict
}

TEST(ConflictOracleTest, CountEdgesMatchesPairScan) {
  PaperExample ex = MakePaperExample();
  Table persons = ex.persons.Clone();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  for (size_t r = 0; r < persons.NumRows(); ++r)
    persons.SetCode(r, hid_col, hids[r]);
  auto v = join_oracle::MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto bound = BindAll(ex.dcs, v.value());
  ASSERT_TRUE(bound.ok());
  const DcRowClasses classes = DcRowClasses::Build(v.value(), bound.value());
  auto oracle = PartitionConflictOracle::Build(v.value(), classes,
                                               {0, 1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(oracle.ok());
  size_t manual = 0;
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = i + 1; j < 7; ++j) {
      if (oracle->PairConflicts(i, j)) ++manual;
    }
  }
  EXPECT_EQ(oracle->CountEdges(), manual);
  // Degrees sum to twice the edge count (binary DCs only here).
  int64_t degree_sum = 0;
  for (size_t i = 0; i < 7; ++i) degree_sum += oracle->Degree(i);
  EXPECT_EQ(degree_sum, static_cast<int64_t>(2 * manual));
}

}  // namespace
}  // namespace cextend
