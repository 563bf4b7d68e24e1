#include "relational/predicate.h"

#include <gtest/gtest.h>

namespace cextend {
namespace {

Table MakeTable() {
  Schema schema{{"age", DataType::kInt64},
                {"rel", DataType::kString},
                {"ml", DataType::kInt64}};
  Table t{schema};
  // age, rel, ml
  EXPECT_TRUE(t.AppendRow({Value(75), Value("Owner"), Value(0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(24), Value("Spouse"), Value(0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10), Value("Child"), Value(1)}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value("Child"), Value(1)}).ok());
  return t;
}

TEST(PredicateTest, TrueMatchesEverything) {
  Table t = MakeTable();
  auto bound = BoundPredicate::Bind(Predicate::True(), t);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->CountMatches(t), 4u);
}

TEST(PredicateTest, IntComparisons) {
  Table t = MakeTable();
  struct Case {
    Predicate pred;
    size_t expected;
  };
  std::vector<Case> cases;
  cases.push_back({Predicate().Eq("age", Value(24)), 1});
  cases.push_back({Predicate().Ne("age", Value(24)), 2});  // NULL fails Ne too
  cases.push_back({Predicate().Lt("age", Value(25)), 2});
  cases.push_back({Predicate().Le("age", Value(24)), 2});
  cases.push_back({Predicate().Gt("age", Value(24)), 1});
  cases.push_back({Predicate().Ge("age", Value(24)), 2});
  cases.push_back({Predicate().Between("age", 10, 24), 2});
  for (const Case& c : cases) {
    auto bound = BoundPredicate::Bind(c.pred, t);
    ASSERT_TRUE(bound.ok()) << c.pred.ToString();
    EXPECT_EQ(bound->CountMatches(t), c.expected) << c.pred.ToString();
  }
}

TEST(PredicateTest, StringEqualityAndIn) {
  Table t = MakeTable();
  auto owner = BoundPredicate::Bind(Predicate().Eq("rel", Value("Owner")), t);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->CountMatches(t), 1u);

  auto family = BoundPredicate::Bind(
      Predicate().In("rel", {Value("Spouse"), Value("Child")}), t);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->CountMatches(t), 3u);
}

TEST(PredicateTest, AbsentStringConstant) {
  Table t = MakeTable();
  // Eq against an uninterned string can never match.
  auto eq = BoundPredicate::Bind(Predicate().Eq("rel", Value("Alien")), t);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->CountMatches(t), 0u);
  // Ne against an uninterned string matches all non-null cells.
  auto ne = BoundPredicate::Bind(Predicate().Ne("rel", Value("Alien")), t);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->CountMatches(t), 4u);
  // IN with only absent values matches nothing.
  auto in = BoundPredicate::Bind(
      Predicate().In("rel", {Value("Alien"), Value("Ghost")}), t);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->CountMatches(t), 0u);
}

TEST(PredicateTest, Conjunction) {
  Table t = MakeTable();
  Predicate p;
  p.Eq("rel", Value("Child")).Eq("ml", Value(1));
  auto bound = BoundPredicate::Bind(p, t);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->CountMatches(t), 2u);

  Predicate q = p.AndWith(Predicate().Ge("age", Value(5)));
  auto bound_q = BoundPredicate::Bind(q, t);
  ASSERT_TRUE(bound_q.ok());
  EXPECT_EQ(bound_q->CountMatches(t), 1u);  // NULL age row drops out
}

TEST(PredicateTest, NullFailsEveryAtom) {
  Table t = MakeTable();
  auto lt = BoundPredicate::Bind(Predicate().Lt("age", Value(1000)), t);
  ASSERT_TRUE(lt.ok());
  EXPECT_FALSE(lt->Matches(t, 3));  // NULL age
}

TEST(PredicateTest, BindErrors) {
  Table t = MakeTable();
  EXPECT_FALSE(
      BoundPredicate::Bind(Predicate().Eq("missing", Value(1)), t).ok());
  EXPECT_FALSE(
      BoundPredicate::Bind(Predicate().Lt("rel", Value("x")), t).ok());
  // Wrong constant type for an ordering atom on an int column.
  EXPECT_FALSE(
      BoundPredicate::Bind(Predicate().Lt("age", Value("young")), t).ok());
}

// An atom that can never hold does not hide a bad atom after it: binding
// fails the same in either order.
TEST(PredicateTest, BindErrorsInAnyAtomOrder) {
  Table t = MakeTable();
  const Predicate bad_constant = Predicate().Lt("age", Value("x"));
  const Predicate unknown_column = Predicate().Eq("missing", Value(1));
  const Predicate string_ordering = Predicate().Lt("rel", Value("x"));
  for (const Predicate& bad : {bad_constant, unknown_column, string_ordering}) {
    Predicate absent_first = Predicate().Eq("rel", Value("Nobody"));
    Predicate absent_last = bad;
    absent_last.Eq("rel", Value("Nobody"));
    auto first = BoundPredicate::Bind(absent_first.AndWith(bad), t);
    auto last = BoundPredicate::Bind(absent_last, t);
    EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument)
        << absent_first.AndWith(bad).ToString();
    EXPECT_EQ(last.status().code(), StatusCode::kInvalidArgument)
        << absent_last.ToString();
  }
  // So does an empty IN list.
  Predicate empty_in = Predicate().In("rel", {Value("Nobody")});
  EXPECT_FALSE(BoundPredicate::Bind(empty_in.AndWith(bad_constant), t).ok());
}

// An always-false predicate keeps every atom, so the columns it reads are
// those of its whole condition.
TEST(PredicateTest, AlwaysFalseKeepsEveryAtom) {
  Table t = MakeTable();
  auto bound = BoundPredicate::Bind(Predicate()
                                        .Eq("rel", Value("Nobody"))
                                        .Ge("age", Value(3))
                                        .In("ml", {Value(7)}),
                                    t);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->always_false());
  ASSERT_EQ(bound->atoms().size(), 3u);
  EXPECT_EQ(bound->atoms()[0].col, 1u);
  EXPECT_EQ(bound->atoms()[1].col, 0u);
  EXPECT_EQ(bound->atoms()[2].col, 2u);
  EXPECT_EQ(bound->CountMatches(t), 0u);
  std::vector<uint8_t> match;
  bound->MatchesBatch(t, {0, 1, 2, 3, 0}, &match);
  EXPECT_EQ(match, (std::vector<uint8_t>(5, 0)));
}

TEST(PredicateTest, MatchesBatchAgreesWithMatches) {
  Table t = MakeTable();
  const std::vector<uint32_t> rows = {3, 0, 2, 1, 2, 3};
  for (const Predicate& p :
       {Predicate::True(), Predicate().Eq("rel", Value("Child")),
        Predicate().Ne("rel", Value("Nobody")), Predicate().Eq("age", Value()),
        Predicate().In("rel", {Value("Owner"), Value("Child")}).Lt(
            "age", Value(50)),
        Predicate().Ge("age", Value(10)).Eq("ml", Value(0))}) {
    auto bound = BoundPredicate::Bind(p, t);
    ASSERT_TRUE(bound.ok()) << p.ToString();
    std::vector<uint8_t> match;
    bound->MatchesBatch(t, rows, &match);
    ASSERT_EQ(match.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(match[i] != 0, bound->Matches(t, rows[i]))
          << p.ToString() << " row " << rows[i];
    }
  }
}

TEST(PredicateTest, ColumnsAndToString) {
  Predicate p;
  p.Eq("a", Value(1)).Lt("b", Value(2)).Ge("a", Value(0));
  EXPECT_EQ(p.Columns(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(p.ToString(), "a = 1 AND b < 2 AND a >= 0");
  EXPECT_EQ(Predicate::True().ToString(), "TRUE");
}

}  // namespace
}  // namespace cextend
