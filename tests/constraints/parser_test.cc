#include "constraints/parser.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

Schema R1Schema() {
  return Schema{{"Age", DataType::kInt64},
                {"Rel", DataType::kString},
                {"MultiLing", DataType::kInt64}};
}
Schema R2Schema() {
  return Schema{{"Tenure", DataType::kString}, {"Area", DataType::kString}};
}

TEST(ParsePredicateTest, AllOperators) {
  auto p = ParsePredicate(
      "Age <= 24 & Age >= 3 & Age < 100 & Age > 0 & Rel = \"Owner\" & "
      "MultiLing != 1");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->atoms().size(), 6u);
  EXPECT_EQ(p->ToString(),
            "Age <= 24 AND Age >= 3 AND Age < 100 AND Age > 0 AND Rel = "
            "Owner AND MultiLing != 1");
}

TEST(ParsePredicateTest, InSetsAndQuotes) {
  auto p = ParsePredicate("Rel IN {\"Owner\", 'Spouse'} & Age = -5");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->atoms().size(), 2u);
  EXPECT_EQ(p->atoms()[0].op, CompareOp::kIn);
  EXPECT_EQ(p->atoms()[0].values.size(), 2u);
  EXPECT_EQ(p->atoms()[1].value, Value(int64_t{-5}));
}

TEST(ParsePredicateTest, Errors) {
  EXPECT_FALSE(ParsePredicate("Age <=").ok());
  EXPECT_FALSE(ParsePredicate("= 5").ok());
  EXPECT_FALSE(ParsePredicate("Age <= 24 garbage").ok());
  EXPECT_FALSE(ParsePredicate("Rel = \"unterminated").ok());
  EXPECT_FALSE(ParsePredicate("Rel IN {").ok());
  EXPECT_FALSE(ParsePredicate("Age ^ 3").ok());
}

TEST(ParsePredicateTest, OutOfRangeIntegerIsAnError) {
  auto p = ParsePredicate("Age > 99999999999999999999");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(p.status().message().find("integer literal out of range"),
            std::string::npos)
      << p.status();
  // INT64_MAX itself still parses.
  auto max = ParsePredicate("Age > 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->atoms()[0].value,
            Value(std::numeric_limits<int64_t>::max()));
  EXPECT_FALSE(ParsePredicate("Age > 9223372036854775808").ok());
  EXPECT_FALSE(ParsePredicate("Rel IN {1, 99999999999999999999}").ok());
}

TEST(ParseCcTest, SplitsSidesBySchema) {
  auto cc = ParseCc("COUNT(Rel = \"Owner\" & Area = \"Chicago\") = 4",
                    R1Schema(), R2Schema(), "cc1");
  ASSERT_TRUE(cc.ok()) << cc.status();
  EXPECT_EQ(cc->name, "cc1");
  EXPECT_EQ(cc->target, 4);
  EXPECT_EQ(cc->r1_condition.ToString(), "Rel = Owner");
  EXPECT_EQ(cc->r2_condition.ToString(), "Area = Chicago");
}

TEST(ParseCcTest, MatchesHandWrittenOnPaperExample) {
  PaperExample ex = MakePaperExample();
  Schema r1{{"Age", DataType::kInt64},
            {"Rel", DataType::kString},
            {"MultiLing", DataType::kInt64}};
  Schema r2{{"Area", DataType::kString}};
  auto cc = ParseCc("COUNT(Age <= 24 & Area = 'Chicago') = 3", r1, r2);
  ASSERT_TRUE(cc.ok());
  // Same selection as the fixture's CC3.
  EXPECT_EQ(cc->JoinCondition().ToString(),
            ex.ccs[2].JoinCondition().ToString());
  EXPECT_EQ(cc->target, ex.ccs[2].target);
}

TEST(ParseCcTest, Errors) {
  Schema r1 = R1Schema(), r2 = R2Schema();
  EXPECT_FALSE(ParseCc("Rel = 'x'", r1, r2).ok());            // no COUNT
  EXPECT_FALSE(ParseCc("COUNT(Rel = 'x')", r1, r2).ok());     // no target
  EXPECT_FALSE(ParseCc("COUNT(Nope = 'x') = 1", r1, r2).ok()); // unknown col
  EXPECT_EQ(ParseCc("COUNT(Age > 99999999999999999999) = 1", r1, r2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // literal out of range
  EXPECT_EQ(ParseCc("COUNT(Age > 1) = 99999999999999999999", r1, r2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // target out of range
  Schema overlapping{{"Rel", DataType::kString}};
  EXPECT_FALSE(ParseCc("COUNT(Rel = 'x') = 1", r1, overlapping).ok());
}

TEST(ParseDcTest, UnaryAndBinaryAtoms) {
  auto dc = ParseDc(
      "!(t0.Rel = \"Owner\" & t1.Rel = \"Spouse\" & t1.Age < t0.Age - 50)",
      "spouse_gap");
  ASSERT_TRUE(dc.ok()) << dc.status();
  EXPECT_EQ(dc->arity(), 2);
  EXPECT_EQ(dc->name(), "spouse_gap");
  ASSERT_EQ(dc->atoms().size(), 3u);
  const DcAtom& cross = dc->atoms()[2];
  EXPECT_TRUE(cross.is_binary);
  EXPECT_EQ(cross.offset, -50);
  EXPECT_EQ(cross.op, CompareOp::kLt);
}

TEST(ParseDcTest, SemanticsMatchHandWritten) {
  // Bind both forms against the paper example and compare evaluations.
  PaperExample ex = MakePaperExample();
  auto parsed = ParseDc(
      "!(t0.Rel = 'Owner' & t0.MultiLing = 1 & t1.Rel = 'Child' & "
      "t1.Age < t0.Age - 50)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto bound_parsed = BoundDenialConstraint::Bind(parsed.value(), ex.persons);
  auto bound_hand = BoundDenialConstraint::Bind(ex.dcs[3], ex.persons);
  ASSERT_TRUE(bound_parsed.ok() && bound_hand.ok());
  for (uint32_t i = 0; i < ex.persons.NumRows(); ++i) {
    for (uint32_t j = 0; j < ex.persons.NumRows(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(bound_parsed->BodyHolds(ex.persons, {i, j}),
                bound_hand->BodyHolds(ex.persons, {i, j}))
          << i << "," << j;
    }
  }
}

TEST(ParseDcTest, TernaryAndInSets) {
  auto dc = ParseDc("!(t0.Cls = t1.Cls & t1.Cls = t2.Cls)");
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(dc->arity(), 3);
  auto in_dc = ParseDc("!(t0.Rel IN {'Spouse', 'Partner'} & t1.Rel IN "
                       "{'Spouse', 'Partner'})");
  ASSERT_TRUE(in_dc.ok());
  EXPECT_EQ(in_dc->atoms()[0].rhs_values.size(), 2u);
}

TEST(ParseDcTest, PositiveOffset) {
  auto dc = ParseDc("!(t1.Age > t0.Age + 50)");
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(dc->atoms()[0].offset, 50);
}

TEST(ParseDcTest, Errors) {
  EXPECT_FALSE(ParseDc("t0.Rel = 'x'").ok());          // missing !( )
  EXPECT_FALSE(ParseDc("!(t0.Rel = 'x')").ok());       // only one tuple var
  EXPECT_FALSE(ParseDc("!(tX.Rel = 'x' & t1.A = 1)").ok());  // bad ref
  EXPECT_FALSE(ParseDc("!(t0.Rel = 'x' & t1.Age < t0.Age - 'y')").ok());
}

TEST(ParseSpecTest, FullFile) {
  const char* spec_text = R"(
# the paper's running example
cc chicago_owners: COUNT(Rel = "Owner" & Area = "Chicago") = 4
cc nyc_owners:     COUNT(Rel = "Owner" & Area = "NYC") = 2

dc one_owner: !(t0.Rel = "Owner" & t1.Rel = "Owner")
)";
  Schema r1 = R1Schema(), r2 = R2Schema();
  auto spec = ParseConstraintSpec(spec_text, r1, r2);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->ccs.size(), 2u);
  ASSERT_EQ(spec->dcs.size(), 1u);
  EXPECT_EQ(spec->ccs[0].name, "chicago_owners");
  EXPECT_EQ(spec->ccs[1].target, 2);
  EXPECT_EQ(spec->dcs[0].name(), "one_owner");
}

TEST(ParseSpecTest, ReportsLineNumbers) {
  Schema r1 = R1Schema(), r2 = R2Schema();
  auto spec = ParseConstraintSpec("\n\ncc bad: COUNT(Nope = 1) = 1\n", r1, r2);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 3"), std::string::npos);
  EXPECT_FALSE(ParseConstraintSpec("zz x: foo\n", r1, r2).ok());
  EXPECT_FALSE(ParseConstraintSpec("no colon here\n", r1, r2).ok());
}

}  // namespace
}  // namespace cextend
