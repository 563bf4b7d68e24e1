#include "constraints/denial_constraint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;

Table PersonsView() {
  // The A-columns view phase II evaluates DCs on (no FK needed).
  return MakePaperExample().persons;
}

TEST(DenialConstraintTest, ToStringMentionsAtoms) {
  DenialConstraint dc(2, "DC_O_O");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
  std::string s = dc.ToString();
  EXPECT_NE(s.find("t0.Rel = Owner"), std::string::npos);
  EXPECT_NE(s.find("t1.Age < t0.Age-50"), std::string::npos);
}

TEST(DenialConstraintTest, OwnerOwnerBodyHolds) {
  Table t = PersonsView();
  DenialConstraint dc(2, "DC_O_O");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  // Rows 0 and 1 are both owners (pids 1 and 2).
  EXPECT_TRUE(bound->BodyHolds(t, {0, 1}));
  // Row 4 is a spouse.
  EXPECT_FALSE(bound->BodyHolds(t, {0, 4}));
  EXPECT_FALSE(bound->BodyHolds(t, {4, 0}));
}

TEST(DenialConstraintTest, AgeGapCrossAtom) {
  Table t = PersonsView();
  // Spouse more than 50 years younger than the owner.
  DenialConstraint dc(2, "DC_O_S_low");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
  dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  // Owner pid=1 age 75, spouse pid=5 age 24: 24 < 75-50=25 -> violation body.
  EXPECT_TRUE(bound->BodyHolds(t, {0, 4}));
  // Owner pid=3 age 25, spouse age 24: 24 < -25 is false -> fine.
  EXPECT_FALSE(bound->BodyHolds(t, {2, 4}));
  // Unordered: some ordering of {0,4} violates.
  EXPECT_TRUE(bound->BodyHoldsUnordered(t, {4, 0}));
  EXPECT_FALSE(bound->BodyHoldsUnordered(t, {2, 4}));
}

TEST(DenialConstraintTest, SideMatchesFiltersRoles) {
  Table t = PersonsView();
  DenialConstraint dc(2, "DC");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->SideMatches(t, 0, 0));   // owner fits role 0
  EXPECT_FALSE(bound->SideMatches(t, 0, 1));  // but not role 1
  EXPECT_TRUE(bound->SideMatches(t, 5, 1));   // child fits role 1
  EXPECT_FALSE(bound->SideMatches(t, 4, 0));  // spouse fits neither
  EXPECT_FALSE(bound->SideMatches(t, 4, 1));
}

TEST(DenialConstraintTest, InAtom) {
  Table t = PersonsView();
  DenialConstraint dc(2, "DC");
  dc.UnaryIn(0, "Rel", {Value("Spouse"), Value("Child")});
  dc.UnaryIn(1, "Rel", {Value("Spouse"), Value("Child")});
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->BodyHolds(t, {4, 5}));   // spouse + child
  EXPECT_FALSE(bound->BodyHolds(t, {0, 5}));  // owner not in set
}

TEST(DenialConstraintTest, AbsentConstantNeverMatches) {
  Table t = PersonsView();
  DenialConstraint dc(2, "DC");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Martian"));
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  for (uint32_t i = 0; i < t.NumRows(); ++i) {
    EXPECT_FALSE(bound->SideMatches(t, i, 0));
  }
}

TEST(DenialConstraintTest, TernaryBodyHolds) {
  Schema schema{{"Cls", DataType::kInt64}};
  Table t{schema};
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  DenialConstraint dc(3, "clause");
  dc.Binary(0, "Cls", CompareOp::kEq, 1, "Cls");
  dc.Binary(1, "Cls", CompareOp::kEq, 2, "Cls");
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->BodyHoldsUnordered(t, {0, 1, 2}));
  EXPECT_FALSE(bound->BodyHoldsUnordered(t, {0, 1, 3}));
}

TEST(DenialConstraintTest, BindRejectsBadAtoms) {
  Table t = PersonsView();
  {
    DenialConstraint dc(2, "bad-column");
    dc.Unary(0, "Nope", CompareOp::kEq, Value(1));
    EXPECT_FALSE(BoundDenialConstraint::Bind(dc, t).ok());
  }
  {
    DenialConstraint dc(2, "string-order");
    dc.Unary(0, "Rel", CompareOp::kLt, Value("Owner"));
    EXPECT_FALSE(BoundDenialConstraint::Bind(dc, t).ok());
  }
  {
    DenialConstraint dc(2, "mixed-types");
    dc.Binary(0, "Rel", CompareOp::kEq, 1, "Age");
    EXPECT_FALSE(BoundDenialConstraint::Bind(dc, t).ok());
  }
  {
    DenialConstraint dc(2, "string-offset");
    dc.Binary(0, "Rel", CompareOp::kEq, 1, "Rel", 3);
    EXPECT_FALSE(BoundDenialConstraint::Bind(dc, t).ok());
  }
}

TEST(DenialConstraintTest, NullCellsNeverViolate) {
  Schema schema{{"Age", DataType::kInt64}};
  Table t{schema};
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(5)}).ok());
  DenialConstraint dc(2, "gap");
  dc.Binary(0, "Age", CompareOp::kLt, 1, "Age");
  auto bound = BoundDenialConstraint::Bind(dc, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->BodyHolds(t, {0, 1}));
  EXPECT_FALSE(bound->BodyHolds(t, {1, 0}));
}

}  // namespace
}  // namespace cextend
