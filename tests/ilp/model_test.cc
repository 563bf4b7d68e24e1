#include "ilp/model.h"

#include <gtest/gtest.h>

#include "ilp/branch_and_bound.h"

namespace cextend {
namespace ilp {
namespace {

TEST(ModelTest, MergesDuplicateTerms) {
  Model m;
  int x = m.AddVariable(0.0, false);
  m.AddConstraint({{x, 1.0}, {x, 2.0}}, Sense::kEq, 6.0);
  ASSERT_EQ(m.num_constraints(), 1u);
  ASSERT_EQ(m.constraints()[0].terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.constraints()[0].terms[0].coeff, 3.0);
  // 3x = 6 -> x = 2.
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.values[0], 2.0, 1e-9);
}

TEST(ModelTest, DropsZeroCoefficients) {
  Model m;
  int x = m.AddVariable(0.0, false);
  int y = m.AddVariable(0.0, false);
  m.AddConstraint({{x, 1.0}, {y, 1.0}, {y, -1.0}}, Sense::kEq, 4.0);
  ASSERT_EQ(m.constraints()[0].terms.size(), 1u);
  EXPECT_EQ(m.constraints()[0].terms[0].var, x);
}

TEST(ModelTest, HasIntegerVariables) {
  Model m;
  m.AddVariable(0.0, false);
  EXPECT_FALSE(m.HasIntegerVariables());
  m.AddVariable(0.0, true);
  EXPECT_TRUE(m.HasIntegerVariables());
}

TEST(ModelTest, ToStringRendersSenseAndNames) {
  Model m;
  int x = m.AddVariable(2.0, true);
  m.AddConstraint({{x, 1.0}}, Sense::kGe, 3.0, "lb");
  std::string s = m.ToString();
  EXPECT_NE(s.find(">= 3"), std::string::npos);
  EXPECT_NE(s.find("[lb]"), std::string::npos);
  EXPECT_NE(s.find("2*x0"), std::string::npos);
}

TEST(ModelEdgeTest, EmptyModelSolves) {
  Model m;
  LpResult r = SolveLp(m);
  EXPECT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
  IlpResult ir = SolveIlp(m);
  EXPECT_EQ(ir.status, IlpStatus::kOptimal);
}

TEST(ModelEdgeTest, UnconstrainedVariableMinimizesAtZero) {
  Model m;
  m.AddVariable(5.0, false);  // min 5x, x >= 0 -> 0
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.values[0], 0.0, 1e-9);
}

TEST(ModelEdgeTest, ZeroRhsEqualityForcesZero) {
  Model m;
  int x = m.AddVariable(-1.0, false);
  int y = m.AddVariable(0.0, false);
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 0.0);
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.values[static_cast<size_t>(x)], 0.0, 1e-9);
}

TEST(ModelEdgeTest, IntegerUpperBoundZeroPinsVariable) {
  Model m;
  int x = m.AddVariable(-1.0, true, /*upper=*/0.0);
  int y = m.AddVariable(-1.0, true, /*upper=*/3.0);
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 10.0);
  IlpResult r = SolveIlp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.values[static_cast<size_t>(x)], 0.0, 1e-9);
  EXPECT_NEAR(r.values[static_cast<size_t>(y)], 3.0, 1e-9);
}

}  // namespace
}  // namespace ilp
}  // namespace cextend
