#include "constraints/relationship.h"

#include <gtest/gtest.h>

#include <limits>

namespace cextend {
namespace {

Schema R1Schema() {
  return Schema{{"Age", DataType::kInt64},
                {"Rel", DataType::kString},
                {"MultiLing", DataType::kInt64}};
}
Schema R2Schema() {
  return Schema{{"Tenure", DataType::kString}, {"Area", DataType::kString}};
}

CardinalityConstraint MakeCc(int64_t age_lo, int64_t age_hi,
                             const char* area, int multi = -1) {
  CardinalityConstraint cc;
  cc.r1_condition.Between("Age", age_lo, age_hi);
  if (multi >= 0) cc.r1_condition.Eq("MultiLing", Value(int64_t{multi}));
  cc.r2_condition.Eq("Area", Value(area));
  cc.target = 1;
  return cc;
}

/// The relation of `a` to `b`, through the production classifier.
CcRelation Classify(const CardinalityConstraint& a,
                    const CardinalityConstraint& b) {
  auto matrix = ClassifyAll({a, b}, R1Schema(), R2Schema());
  EXPECT_TRUE(matrix.ok()) << matrix.status();
  return matrix->At(0, 1);
}

// Figure 6 of the paper: CC1 ∩ CC2 = ∅ (disjoint ages), CC4 ⊆ CC3.
TEST(RelationshipTest, PaperFigure6) {
  CardinalityConstraint cc1 = MakeCc(10, 14, "Chicago");
  CardinalityConstraint cc2 = MakeCc(50, 60, "NYC", 0);
  CardinalityConstraint cc3 = MakeCc(13, 64, "Chicago");
  CardinalityConstraint cc4 = MakeCc(18, 24, "Chicago", 0);
  EXPECT_EQ(Classify(cc1, cc2), CcRelation::kDisjoint);
  EXPECT_EQ(Classify(cc4, cc3), CcRelation::kFirstInSecond);
  EXPECT_EQ(Classify(cc3, cc4), CcRelation::kSecondInFirst);
  // CC1's age interval [10,14] partially overlaps CC3's [13,64]:
  // intersecting by Definition 4.4.
  EXPECT_EQ(Classify(cc1, cc3), CcRelation::kIntersecting);
}

TEST(RelationshipTest, DisjointViaR2WhenR1Identical) {
  // Definition 4.2, second clause.
  CardinalityConstraint a = MakeCc(10, 20, "Chicago");
  CardinalityConstraint b = MakeCc(10, 20, "NYC");
  EXPECT_EQ(Classify(a, b), CcRelation::kDisjoint);
}

TEST(RelationshipTest, SameR1OverlappingR2IsNotDisjoint) {
  CardinalityConstraint a = MakeCc(10, 20, "Chicago");
  CardinalityConstraint b = MakeCc(10, 20, "Chicago");
  b.r2_condition = Predicate();
  b.r2_condition.Eq("Area", Value("Chicago")).Eq("Tenure", Value("Rented"));
  // b adds a Tenure constraint: combined containment b ⊆ a.
  EXPECT_EQ(Classify(b, a), CcRelation::kFirstInSecond);
}

TEST(RelationshipTest, EqualConditions) {
  CardinalityConstraint a = MakeCc(10, 20, "Chicago");
  CardinalityConstraint b = MakeCc(10, 20, "Chicago");
  EXPECT_EQ(Classify(a, b), CcRelation::kEqual);
}

TEST(RelationshipTest, ContainmentNeedsAttributeSuperset) {
  // a restricts {Age}, b restricts {MultiLing}: different attributes on R1
  // with overlap -> intersecting.
  CardinalityConstraint a;
  a.r1_condition.Between("Age", 0, 50);
  a.r2_condition.Eq("Area", Value("Chicago"));
  CardinalityConstraint b;
  b.r1_condition.Eq("MultiLing", Value(int64_t{1}));
  b.r2_condition.Eq("Area", Value("Chicago"));
  EXPECT_EQ(Classify(a, b), CcRelation::kIntersecting);
}

TEST(RelationshipTest, DifferentRelValuesDisjoint) {
  CardinalityConstraint a;
  a.r1_condition.Eq("Rel", Value("Owner"));
  a.r2_condition.Eq("Area", Value("Chicago"));
  CardinalityConstraint b;
  b.r1_condition.Eq("Rel", Value("Spouse"));
  b.r2_condition.Eq("Area", Value("Chicago"));
  EXPECT_EQ(Classify(a, b), CcRelation::kDisjoint);
}

TEST(RelationshipTest, ClassifyAllMatrixIsConsistent) {
  std::vector<CardinalityConstraint> ccs = {
      MakeCc(10, 14, "Chicago"), MakeCc(50, 60, "NYC", 0),
      MakeCc(13, 64, "Chicago"), MakeCc(18, 24, "Chicago", 0)};
  auto matrix = ClassifyAll(ccs, R1Schema(), R2Schema());
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(matrix->At(i, i), CcRelation::kEqual);
    for (size_t j = 0; j < 4; ++j) {
      CcRelation ij = matrix->At(i, j);
      CcRelation ji = matrix->At(j, i);
      if (ij == CcRelation::kFirstInSecond) {
        EXPECT_EQ(ji, CcRelation::kSecondInFirst);
      } else if (ij == CcRelation::kSecondInFirst) {
        EXPECT_EQ(ji, CcRelation::kFirstInSecond);
      } else {
        EXPECT_EQ(ij, ji);
      }
    }
  }
  EXPECT_EQ(matrix->At(3, 2), CcRelation::kFirstInSecond);  // CC4 ⊆ CC3
}

TEST(RelationshipTest, UnknownSetsRouteToIntersecting) {
  CardinalityConstraint a;
  a.r1_condition.Ne("Age", Value(10));  // not interval-representable
  a.r2_condition.Eq("Area", Value("Chicago"));
  CardinalityConstraint b = MakeCc(0, 5, "Chicago");
  EXPECT_EQ(Classify(a, b), CcRelation::kIntersecting);
}

TEST(RelationshipTest, UnsatisfiableIntervalIsDisjointFromEverything) {
  // `Age > INT64_MAX` and `Age < INT64_MIN` admit no value. Without
  // saturation, c + 1 / c - 1 overflowed and the interval wrapped to almost
  // the whole range, so the CC was classified as containing the others.
  CardinalityConstraint above;
  above.r1_condition.Gt("Age", Value(std::numeric_limits<int64_t>::max()));
  above.r2_condition.Eq("Area", Value("Chicago"));
  CardinalityConstraint below;
  below.r1_condition.Lt("Age", Value(std::numeric_limits<int64_t>::min()));
  below.r2_condition.Eq("Area", Value("Chicago"));
  CardinalityConstraint any_age;
  any_age.r2_condition.Eq("Area", Value("Chicago"));
  std::vector<CardinalityConstraint> ccs = {
      above, below, any_age, MakeCc(10, 14, "Chicago"),
      MakeCc(0, 114, "Chicago", 1), above};
  auto matrix = ClassifyAll(ccs, R1Schema(), R2Schema());
  ASSERT_TRUE(matrix.ok()) << matrix.status();
  for (size_t empty : {size_t{0}, size_t{1}, size_t{5}}) {
    for (size_t j = 0; j < ccs.size(); ++j) {
      if (j == empty) continue;
      EXPECT_EQ(matrix->At(empty, j), CcRelation::kDisjoint)
          << "CC " << empty << " vs CC " << j;
      EXPECT_EQ(matrix->At(j, empty), CcRelation::kDisjoint)
          << "CC " << j << " vs CC " << empty;
    }
  }
}

TEST(RelationshipTest, UnknownColumnFails) {
  CardinalityConstraint bad;
  bad.r1_condition.Eq("Height", Value(int64_t{3}));
  auto matrix =
      ClassifyAll({MakeCc(10, 14, "Chicago"), bad}, R1Schema(), R2Schema());
  EXPECT_FALSE(matrix.ok());
}

}  // namespace
}  // namespace cextend
