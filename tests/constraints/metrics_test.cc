#include "constraints/metrics.h"

#include <gtest/gtest.h>

#include "core/join_oracle.h"
#include "core/join_view.h"
#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

/// A valid solution to the running example (a corrected variant of the
/// paper's Figure 3 — the printed figure places the 24-year-old spouse with
/// the 75-year-old owner, which violates DC_O,S,low by one year; here the
/// spouse lives with the 25-year-old owner and the children with the
/// multi-lingual 25-year-old owner, satisfying every DC and CC).
Table SolvedPersons() {
  PaperExample ex = MakePaperExample();
  Table persons = ex.persons.Clone();
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  size_t hid_col = persons.schema().IndexOrDie("hid");
  for (size_t r = 0; r < persons.NumRows(); ++r) {
    persons.SetCode(r, hid_col, hids[r]);
  }
  return persons;
}

TEST(MetricsTest, Figure3SatisfiesAllDcs) {
  PaperExample ex = MakePaperExample();
  auto report = EvaluateDcError(ex.dcs, SolvedPersons(), "hid");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->error, 0.0);
  EXPECT_EQ(report->num_violations, 0u);
}

TEST(MetricsTest, PaperDcErrorExample) {
  // Paper Section 6.1: "if hid in the first two tuples was 2, the DC error
  // would be 2/9" (two owners sharing a home).
  PaperExample ex = MakePaperExample();
  Table persons = SolvedPersons();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  persons.SetCode(0, hid_col, 2);
  persons.SetCode(1, hid_col, 2);
  auto report = EvaluateDcError(ex.dcs, persons, "hid");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_DOUBLE_EQ(report->error, 2.0 / 9.0);
  EXPECT_EQ(report->num_violating_tuples, 2u);
}

TEST(MetricsTest, NullFkNeverViolates) {
  PaperExample ex = MakePaperExample();
  auto report = EvaluateDcError(ex.dcs, ex.persons, "hid");  // hid all NULL
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->error, 0.0);
}

TEST(MetricsTest, CcErrorOnSolvedExample) {
  PaperExample ex = MakePaperExample();
  auto v_join =
      join_oracle::MaterializeJoin(SolvedPersons(), ex.housing, ex.names);
  ASSERT_TRUE(v_join.ok()) << v_join.status();
  auto report = EvaluateCcError(ex.ccs, v_join.value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->median, 0.0);
  EXPECT_EQ(report->mean, 0.0);
  EXPECT_EQ(report->num_exact, ex.ccs.size());
}

TEST(MetricsTest, CcErrorUsesMax10Denominator) {
  PaperExample ex = MakePaperExample();
  auto v_join =
      join_oracle::MaterializeJoin(SolvedPersons(), ex.housing, ex.names);
  ASSERT_TRUE(v_join.ok());
  // Perturb CC1's target (actual count 4): error = |4-6| / max(10,6) = 0.2.
  std::vector<CardinalityConstraint> ccs = ex.ccs;
  ccs[0].target = 6;
  auto report = EvaluateCcError(ccs, v_join.value());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->per_cc[0], 0.2);
  // And with a large target the denominator is the target itself:
  ccs[0].target = 104;  // |4-104| / 104
  report = EvaluateCcError(ccs, v_join.value());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->per_cc[0], 100.0 / 104.0);
}

TEST(MetricsTest, JoinMismatchesDetectsCorruption) {
  PaperExample ex = MakePaperExample();
  Table persons = SolvedPersons();
  auto v_join = join_oracle::MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v_join.ok());
  auto zero = CountJoinMismatches(persons, "hid", ex.housing, "hid",
                                  v_join.value(), {"Area"});
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero.value(), 0u);

  // Repoint one FK across areas: exactly one mismatch.
  size_t hid_col = persons.schema().IndexOrDie("hid");
  persons.SetCode(0, hid_col, 5);  // Chicago row now points to an NYC home
  auto one = CountJoinMismatches(persons, "hid", ex.housing, "hid",
                                 v_join.value(), {"Area"});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value(), 1u);

  // Dangling FK also counts.
  persons.SetCode(0, hid_col, 999);
  auto dangling = CountJoinMismatches(persons, "hid", ex.housing, "hid",
                                      v_join.value(), {"Area"});
  ASSERT_TRUE(dangling.ok());
  EXPECT_EQ(dangling.value(), 1u);
}

TEST(MetricsTest, TernaryDcCounted) {
  Schema schema{{"id", DataType::kInt64},
                {"Cls", DataType::kInt64},
                {"fk", DataType::kInt64}};
  Table t{schema};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value(7), Value(1)}).ok());
  }
  DenialConstraint dc(3, "clause");
  dc.Binary(0, "Cls", CompareOp::kEq, 1, "Cls");
  dc.Binary(1, "Cls", CompareOp::kEq, 2, "Cls");
  auto report = EvaluateDcError({dc}, t, "fk");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_violations, 1u);
  EXPECT_DOUBLE_EQ(report->error, 1.0);
}

}  // namespace
}  // namespace cextend
