#include "ilp/branch_and_bound.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cextend {
namespace ilp {
namespace {

TEST(BranchAndBoundTest, FractionalLpForcesBranching) {
  // max x + y s.t. 2x + y <= 5, x + 2y <= 5, integer.
  // LP optimum (5/3, 5/3) -> obj 10/3; ILP optimum value 3 (e.g. (2,1)).
  Model m;
  int x = m.AddVariable(-1.0, true);
  int y = m.AddVariable(-1.0, true);
  m.AddConstraint({{x, 2.0}, {y, 1.0}}, Sense::kLe, 5.0);
  m.AddConstraint({{x, 1.0}, {y, 2.0}}, Sense::kLe, 5.0);
  IlpResult r = SolveIlp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-9);
  EXPECT_TRUE(IsFeasible(m, r.values, 1e-6));
}

TEST(BranchAndBoundTest, Knapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, a,b,c in {0,1} -> value 9.
  Model m;
  int a = m.AddVariable(-5.0, true, 1.0);
  int b = m.AddVariable(-4.0, true, 1.0);
  int c = m.AddVariable(-3.0, true, 1.0);
  m.AddConstraint({{a, 2.0}, {b, 3.0}, {c, 1.0}}, Sense::kLe, 5.0);
  IlpResult r = SolveIlp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -9.0, 1e-9);
}

TEST(BranchAndBoundTest, IntegerInfeasible) {
  // 2x = 3 has the LP solution x=1.5 but no integer solution.
  Model m;
  int x = m.AddVariable(0.0, true, 10.0);
  m.AddConstraint({{x, 2.0}}, Sense::kEq, 3.0);
  IlpResult r = SolveIlp(m);
  EXPECT_EQ(r.status, IlpStatus::kInfeasible);
}

TEST(BranchAndBoundTest, LpInfeasible) {
  Model m;
  int x = m.AddVariable(0.0, true);
  m.AddConstraint({{x, 1.0}}, Sense::kGe, 5.0);
  m.AddConstraint({{x, 1.0}}, Sense::kLe, 3.0);
  EXPECT_EQ(SolveIlp(m).status, IlpStatus::kInfeasible);
}

TEST(BranchAndBoundTest, IntegralLpNeedsNoBranching) {
  Model m;
  int x = m.AddVariable(1.0, true);
  int y = m.AddVariable(1.0, true);
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 3.0);
  m.AddConstraint({{x, 1.0}, {y, -1.0}}, Sense::kEq, 1.0);
  IlpResult r = SolveIlp(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_NEAR(r.values[0], 2.0, 1e-9);
}

TEST(BranchAndBoundTest, ObjectiveTargetStopsEarly) {
  // Slack-style model whose optimum is zero: reaching zero ends the search.
  Model m;
  int x = m.AddVariable(0.0, true);
  int u = m.AddVariable(1.0, false);
  int v = m.AddVariable(1.0, false);
  m.AddConstraint({{x, 1.0}, {u, 1.0}, {v, -1.0}}, Sense::kEq, 4.0);
  IlpOptions options;
  options.objective_target = 0.0;
  IlpResult r = SolveIlp(m, options);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(BranchAndBoundTest, RoundingHeuristicSeedsIncumbent) {
  Model m;
  int x = m.AddVariable(-1.0, true, 10.0);
  m.AddConstraint({{x, 2.0}}, Sense::kLe, 9.0);  // LP opt x = 4.5
  IlpOptions options;
  bool heuristic_called = false;
  options.rounding_heuristic =
      [&heuristic_called](const std::vector<double>& lp)
      -> std::optional<std::vector<double>> {
    heuristic_called = true;
    std::vector<double> x = lp;
    x[0] = std::floor(x[0]);
    return x;
  };
  IlpResult r = SolveIlp(m, options);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_TRUE(heuristic_called);
  EXPECT_NEAR(r.objective, -4.0, 1e-9);
}

TEST(BranchAndBoundTest, NodeBudgetReportsFeasible) {
  // A model needing branching, with a 1-node budget and a rounding heuristic
  // providing an incumbent: status must be kFeasible (not optimal).
  Model m;
  int x = m.AddVariable(-1.0, true);
  int y = m.AddVariable(-1.0, true);
  m.AddConstraint({{x, 2.0}, {y, 1.0}}, Sense::kLe, 5.0);
  m.AddConstraint({{x, 1.0}, {y, 2.0}}, Sense::kLe, 5.0);
  IlpOptions options;
  options.max_nodes = 1;
  options.rounding_heuristic = [](const std::vector<double>& lp)
      -> std::optional<std::vector<double>> {
    std::vector<double> x = lp;
    for (double& v : x) v = std::floor(v);
    return x;
  };
  IlpResult r = SolveIlp(m, options);
  EXPECT_EQ(r.status, IlpStatus::kFeasible);
  EXPECT_TRUE(IsFeasible(m, r.values, 1e-6));
}

TEST(IsFeasibleTest, ChecksEverything) {
  Model m;
  int x = m.AddVariable(0.0, true, 5.0);
  m.AddConstraint({{x, 1.0}}, Sense::kGe, 2.0);
  EXPECT_TRUE(IsFeasible(m, {3.0}, 1e-6));
  EXPECT_FALSE(IsFeasible(m, {1.0}, 1e-6));   // constraint violated
  EXPECT_FALSE(IsFeasible(m, {6.0}, 1e-6));   // above upper bound
  EXPECT_FALSE(IsFeasible(m, {2.5}, 1e-6));   // fractional
  EXPECT_FALSE(IsFeasible(m, {-1.0}, 1e-6));  // negative
  EXPECT_FALSE(IsFeasible(m, {}, 1e-6));      // arity
}

// Property: random feasible 0/1 equality systems A x = b with known integer
// witness are solved to zero slack.
class BnbRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BnbRandomTest, SolvesFeasibleCountingSystems) {
  Rng rng(GetParam());
  size_t n = 4 + static_cast<size_t>(rng.UniformInt(0, 4));
  size_t rows = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
  Model m;
  std::vector<int64_t> witness(n);
  for (size_t j = 0; j < n; ++j) {
    m.AddVariable(0.0, true);
    witness[j] = rng.UniformInt(0, 4);
  }
  for (size_t i = 0; i < rows; ++i) {
    std::vector<LinearTerm> terms;
    double rhs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({static_cast<int>(j), 1.0});
        rhs += static_cast<double>(witness[j]);
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0}), rhs = static_cast<double>(witness[0]);
    m.AddConstraint(std::move(terms), Sense::kEq, rhs);
  }
  IlpResult r = SolveIlp(m);
  ASSERT_TRUE(r.status == IlpStatus::kOptimal ||
              r.status == IlpStatus::kFeasible)
      << IlpStatusToString(r.status);
  EXPECT_TRUE(IsFeasible(m, r.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandomTest,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace ilp
}  // namespace cextend
