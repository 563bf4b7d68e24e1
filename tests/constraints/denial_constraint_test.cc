#include "constraints/denial_constraint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"
#include "util/rng.h"

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

TEST(DenialConstraintTest, MayHoldOnOneRowRejectsImpossibleBodies) {
  Table t = PersonsView();
  auto may_hold = [&](const DenialConstraint& dc) {
    auto bound = BoundDenialConstraint::Bind(dc, t);
    CEXTEND_CHECK(bound.ok());
    return bound->MayHoldOnOneRow();
  };
  DenialConstraint owner_owner(2, "owner-owner");
  owner_owner.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  owner_owner.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
  EXPECT_TRUE(may_hold(owner_owner));
  DenialConstraint owner_child(2, "owner-child");
  owner_child.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  owner_child.UnaryIn(1, "Rel", {Value("Spouse"), Value("Child")});
  EXPECT_FALSE(may_hold(owner_child));
  DenialConstraint overlapping_in(2, "overlapping-in");
  overlapping_in.UnaryIn(0, "Rel", {Value("Owner"), Value("Child")});
  overlapping_in.UnaryIn(1, "Rel", {Value("Spouse"), Value("Child")});
  EXPECT_TRUE(may_hold(overlapping_in));
  DenialConstraint absent(2, "absent");
  absent.Unary(1, "Rel", CompareOp::kEq, Value("Martian"));
  EXPECT_FALSE(may_hold(absent));
  DenialConstraint younger(2, "younger");
  younger.Binary(1, "Age", CompareOp::kLt, 0, "Age", -12);
  EXPECT_FALSE(may_hold(younger));
  DenialConstraint near(2, "near");
  near.Binary(1, "Age", CompareOp::kGe, 0, "Age", -5);
  EXPECT_TRUE(may_hold(near));
  DenialConstraint other_column(2, "other-column");
  other_column.Binary(1, "Age", CompareOp::kLt, 0, "MultiLing", -12);
  EXPECT_TRUE(may_hold(other_column));
}

// Of the 20 binary census DCs (S_all_DC), only the owner-owner (DC9) and
// spouse-spouse (DC12) cliques can hold on one row; the 16 age-gap DCs and
// the owner-versus-member DCs 10 and 11 cannot.
TEST(DenialConstraintTest, MayHoldOnOneRowKeepsOnlyCensusCliques) {
  datagen::CensusOptions options;
  options.num_persons = 500;
  options.num_households = 200;
  auto data = datagen::GenerateCensus(options);
  ASSERT_TRUE(data.ok());
  std::vector<DenialConstraint> dcs = datagen::MakeCensusDcs(false);
  std::vector<std::string> kept;
  size_t binary = 0;
  for (const DenialConstraint& dc : dcs) {
    if (dc.arity() != 2) continue;
    ++binary;
    auto bound = BoundDenialConstraint::Bind(dc, data->persons);
    ASSERT_TRUE(bound.ok()) << dc.name();
    if (bound->MayHoldOnOneRow()) kept.push_back(dc.name());
  }
  EXPECT_EQ(binary, 20u);
  EXPECT_EQ(kept, (std::vector<std::string>{"DC9", "DC12"}));
}

/// One random atom: either an atom of a census DC with its tuple variables,
/// operator and offset redrawn, or a fresh one over Age/Rel/MultiLing.
void AddRandomAtom(Rng& rng, const std::vector<DcAtom>& census_atoms,
                   DenialConstraint& dc) {
  const CompareOp kOrdering[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};
  const char* kRels[] = {datagen::kOwner, datagen::kSpouse, datagen::kPartner,
                         datagen::kBioChild, datagen::kGrandchild, "Martian"};
  auto var = [&] { return static_cast<int>(rng.UniformInt(0, 1)); };
  auto rel = [&] { return Value(kRels[rng.UniformInt(0, 5)]); };
  if (rng.Bernoulli(0.5)) {
    const DcAtom& a = census_atoms[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(census_atoms.size()) - 1))];
    if (a.is_binary) {
      dc.Binary(var(), a.lhs_column, kOrdering[rng.UniformInt(0, 5)], var(),
                a.rhs_column, rng.UniformInt(-60, 60));
    } else if (a.op == CompareOp::kIn) {
      dc.UnaryIn(var(), a.lhs_column, a.rhs_values);
    } else {
      dc.Unary(var(), a.lhs_column, a.op, a.rhs_value);
    }
    return;
  }
  switch (rng.UniformInt(0, 3)) {
    case 0:  // Rel: =, != or IN over the census vocabulary
      if (rng.Bernoulli(0.4)) {
        dc.UnaryIn(var(), "Rel", {rel(), rel()});
      } else {
        dc.Unary(var(), "Rel",
                 rng.Bernoulli(0.7) ? CompareOp::kEq : CompareOp::kNe, rel());
      }
      break;
    case 1:  // Age or MultiLing against a constant, or IN a small set
      if (rng.Bernoulli(0.3)) {
        dc.UnaryIn(var(), "Age",
                   {Value(rng.UniformInt(0, 20)), Value(rng.UniformInt(0, 20))});
      } else if (rng.Bernoulli(0.5)) {
        dc.Unary(var(), "Age", kOrdering[rng.UniformInt(0, 5)],
                 Value(rng.UniformInt(0, 100)));
      } else {
        dc.Unary(var(), "MultiLing", kOrdering[rng.UniformInt(0, 1)],
                 Value(rng.UniformInt(0, 1)));
      }
      break;
    case 2:  // a column compared with itself, across or within variables
      if (rng.Bernoulli(0.3)) {
        dc.Binary(var(), "Rel",
                  rng.Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe, var(),
                  "Rel");
      } else {
        dc.Binary(var(), "Age", kOrdering[rng.UniformInt(0, 5)], var(), "Age",
                  rng.UniformInt(-3, 3));
      }
      break;
    default:  // two different integer columns
      dc.Binary(var(), "Age", kOrdering[rng.UniformInt(0, 5)], var(),
                "MultiLing", rng.UniformInt(-50, 50));
      break;
  }
}

// Soundness: a DC that MayHoldOnOneRow rejects never holds with one row
// bound to both variables, on any row of the table.
TEST(DenialConstraintTest, MayHoldOnOneRowIsSound) {
  Rng rng(17);
  Schema schema{{"Age", DataType::kInt64},
                {"Rel", DataType::kString},
                {"MultiLing", DataType::kInt64}};
  Table t{schema};
  const char* rels[] = {datagen::kOwner, datagen::kSpouse, datagen::kPartner,
                        datagen::kBioChild, datagen::kGrandchild};
  for (int i = 0; i < 300; ++i) {
    Value age = rng.Bernoulli(0.05) ? Value::Null()
                                    : Value(rng.UniformInt(0, 100));
    Value rel = rng.Bernoulli(0.05) ? Value::Null()
                                    : Value(rels[rng.UniformInt(0, 4)]);
    ASSERT_TRUE(t.AppendRow({age, rel, Value(rng.UniformInt(0, 1))}).ok());
  }
  std::vector<DcAtom> census_atoms;
  for (const DenialConstraint& dc : datagen::MakeCensusDcs(false)) {
    census_atoms.insert(census_atoms.end(), dc.atoms().begin(),
                        dc.atoms().end());
  }
  size_t rejected = 0;
  size_t held = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    DenialConstraint dc(2, "random");
    int64_t atoms = rng.UniformInt(1, 4);
    for (int64_t a = 0; a < atoms; ++a) AddRandomAtom(rng, census_atoms, dc);
    auto bound = BoundDenialConstraint::Bind(dc, t);
    ASSERT_TRUE(bound.ok()) << dc.ToString();
    bool may_hold = bound->MayHoldOnOneRow();
    rejected += may_hold ? 0 : 1;
    for (uint32_t r = 0; r < t.NumRows(); ++r) {
      bool holds = bound->SideMatches(t, r, 0) && bound->SideMatches(t, r, 1) &&
                   bound->CrossAtomsHold(t, {r, r});
      if (holds) ++held;
      ASSERT_TRUE(may_hold || !holds) << dc.ToString() << " on row " << r;
    }
  }
  // Both outcomes occur, so the property is not vacuous.
  EXPECT_GT(rejected, 200u);
  EXPECT_GT(held, 0u);
}

}  // namespace
}  // namespace cextend
