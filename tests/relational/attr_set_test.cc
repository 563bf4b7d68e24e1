#include "relational/attr_set.h"

#include <gtest/gtest.h>

#include <limits>

#include "constraints/relationship_oracle.h"

namespace cextend {
namespace {

using relationship_oracle::DisjointFrom;
using relationship_oracle::SubsetOf;

TEST(AttrSetTest, IntervalBasics) {
  AttrSet a = AttrSet::Interval(5, 10);
  AttrSet b = AttrSet::Interval(7, 8);
  AttrSet c = AttrSet::Interval(11, 20);
  EXPECT_FALSE(a.IsEmpty());
  EXPECT_TRUE(AttrSet::Interval(3, 2).IsEmpty());
  EXPECT_TRUE(SubsetOf(b, a));
  EXPECT_FALSE(SubsetOf(a, b));
  EXPECT_TRUE(DisjointFrom(a, c));
  EXPECT_FALSE(DisjointFrom(a, b));
  EXPECT_TRUE(SubsetOf(a, AttrSet::FullInt()));
}

TEST(AttrSetTest, IntervalIntersection) {
  AttrSet i = AttrSet::Interval(5, 10).IntersectWith(AttrSet::Interval(8, 20));
  EXPECT_EQ(i.lo(), 8);
  EXPECT_EQ(i.hi(), 10);
  EXPECT_TRUE(AttrSet::Interval(1, 2)
                  .IntersectWith(AttrSet::Interval(3, 4))
                  .IsEmpty());
}

TEST(AttrSetTest, CategoricalPositive) {
  AttrSet ab = AttrSet::CatIn({"a", "b"});
  AttrSet a = AttrSet::CatIn({"a"});
  AttrSet cd = AttrSet::CatIn({"c", "d"});
  EXPECT_TRUE(SubsetOf(a, ab));
  EXPECT_FALSE(SubsetOf(ab, a));
  EXPECT_TRUE(DisjointFrom(ab, cd));
  EXPECT_FALSE(DisjointFrom(ab, a));
  EXPECT_TRUE(AttrSet::CatIn({}).IsEmpty());
}

TEST(AttrSetTest, CategoricalNegative) {
  AttrSet not_a = AttrSet::CatNotIn({"a"});
  AttrSet not_ab = AttrSet::CatNotIn({"a", "b"});
  AttrSet b = AttrSet::CatIn({"b"});
  AttrSet a = AttrSet::CatIn({"a"});
  // comp({a,b}) subset of comp({a}).
  EXPECT_TRUE(SubsetOf(not_ab, not_a));
  EXPECT_FALSE(SubsetOf(not_a, not_ab));
  // {b} subset of comp({a}); {a} disjoint from comp({a}).
  EXPECT_TRUE(SubsetOf(b, not_a));
  EXPECT_TRUE(DisjointFrom(a, not_a));
  // Open domain: complements are never provably empty or disjoint.
  EXPECT_FALSE(not_a.IsEmpty());
  EXPECT_FALSE(DisjointFrom(not_a, not_ab));
}

TEST(AttrSetTest, MixedIntersections) {
  AttrSet pos = AttrSet::CatIn({"a", "b", "c"});
  AttrSet neg = AttrSet::CatNotIn({"b"});
  AttrSet i = pos.IntersectWith(neg);
  EXPECT_EQ(i.values(), (std::vector<std::string>{"a", "c"}));
  AttrSet nn = AttrSet::CatNotIn({"a"}).IntersectWith(AttrSet::CatNotIn({"b"}));
  EXPECT_EQ(nn.values(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(nn.kind(), AttrSet::Kind::kCatNegative);
}

TEST(AttrSetTest, UnknownIsConservative) {
  AttrSet u = AttrSet::Unknown();
  AttrSet i = AttrSet::Interval(1, 5);
  EXPECT_FALSE(SubsetOf(u, i));
  EXPECT_FALSE(SubsetOf(i, u));
  EXPECT_FALSE(DisjointFrom(u, i));
  EXPECT_TRUE(SubsetOf(u, AttrSet::Unknown()));  // equal only
}

TEST(AttrSetTest, Membership) {
  EXPECT_TRUE(AttrSet::Interval(1, 5).ContainsInt(3));
  EXPECT_FALSE(AttrSet::Interval(1, 5).ContainsInt(6));
  EXPECT_TRUE(AttrSet::CatIn({"a"}).ContainsString("a"));
  EXPECT_FALSE(AttrSet::CatIn({"a"}).ContainsString("b"));
  EXPECT_FALSE(AttrSet::CatNotIn({"a"}).ContainsString("a"));
  EXPECT_TRUE(AttrSet::CatNotIn({"a"}).ContainsString("b"));
  EXPECT_TRUE(AttrSet::Unknown().ContainsInt(0));
}

TEST(ComputeAttrSetsTest, FoldsConjuncts) {
  Schema schema{{"Age", DataType::kInt64}, {"Rel", DataType::kString}};
  Predicate p;
  p.Ge("Age", Value(10)).Le("Age", Value(20)).Eq("Rel", Value("Owner"));
  auto sets = ComputeAttrSets(p, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->at("Age").lo(), 10);
  EXPECT_EQ(sets->at("Age").hi(), 20);
  EXPECT_EQ(sets->at("Rel").values(), (std::vector<std::string>{"Owner"}));
}

TEST(ComputeAttrSetsTest, StrictBoundsShrink) {
  Schema schema{{"Age", DataType::kInt64}};
  Predicate p;
  p.Gt("Age", Value(10)).Lt("Age", Value(20));
  auto sets = ComputeAttrSets(p, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->at("Age").lo(), 11);
  EXPECT_EQ(sets->at("Age").hi(), 19);
}

TEST(ComputeAttrSetsTest, StrictBoundsPastInt64LimitsAreEmpty) {
  // Nothing is above INT64_MAX or below INT64_MIN; the bound saturates
  // instead of overflowing into a near-full interval.
  Schema schema{{"Age", DataType::kInt64}};
  Predicate above;
  above.Gt("Age", Value(std::numeric_limits<int64_t>::max()));
  auto sets = ComputeAttrSets(above, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->at("Age").IsEmpty()) << sets->at("Age").ToString();
  Predicate below;
  below.Lt("Age", Value(std::numeric_limits<int64_t>::min()));
  sets = ComputeAttrSets(below, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->at("Age").IsEmpty()) << sets->at("Age").ToString();
  // One step inside the limits the bounds still shrink by one.
  Predicate inside;
  inside.Gt("Age", Value(std::numeric_limits<int64_t>::min()))
      .Lt("Age", Value(std::numeric_limits<int64_t>::max()));
  sets = ComputeAttrSets(inside, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->at("Age").lo(), std::numeric_limits<int64_t>::min() + 1);
  EXPECT_EQ(sets->at("Age").hi(), std::numeric_limits<int64_t>::max() - 1);
}

TEST(ComputeAttrSetsTest, ContradictionYieldsEmpty) {
  Schema schema{{"Rel", DataType::kString}};
  Predicate p;
  p.Eq("Rel", Value("A")).Eq("Rel", Value("B"));
  auto sets = ComputeAttrSets(p, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_TRUE(sets->at("Rel").IsEmpty());
}

TEST(ComputeAttrSetsTest, IntNeIsUnknown) {
  Schema schema{{"Age", DataType::kInt64}};
  Predicate p;
  p.Ne("Age", Value(10));
  auto sets = ComputeAttrSets(p, schema);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ(sets->at("Age").kind(), AttrSet::Kind::kUnknown);
}

TEST(ComputeAttrSetsTest, UnknownColumnFails) {
  Schema schema{{"Age", DataType::kInt64}};
  Predicate p;
  p.Eq("Nope", Value(1));
  EXPECT_FALSE(ComputeAttrSets(p, schema).ok());
}

}  // namespace
}  // namespace cextend
