#include "relational/table.h"

#include <gtest/gtest.h>

namespace cextend {
namespace {

Schema PersonSchema() {
  return Schema{{"id", DataType::kInt64},
                {"name", DataType::kString},
                {"age", DataType::kInt64}};
}

TEST(SchemaTest, Lookup) {
  Schema s = PersonSchema();
  EXPECT_EQ(s.NumColumns(), 3u);
  EXPECT_EQ(s.IndexOf("name").value(), 1u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
  EXPECT_TRUE(s.Contains("age"));
  EXPECT_EQ(s.IndexOrDie("id"), 0u);
  EXPECT_EQ(s.ToString(), "id:INT64, name:STRING, age:INT64");
}

TEST(DictionaryTest, InternAndLookup) {
  Dictionary d;
  int64_t a = d.Intern("alpha");
  int64_t b = d.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alpha"), a);  // idempotent
  EXPECT_EQ(d.Get(a), "alpha");
  EXPECT_EQ(d.Find("beta").value(), b);
  EXPECT_FALSE(d.Find("gamma").has_value());
  EXPECT_EQ(d.size(), 2);
}

TEST(TableTest, AppendAndRead) {
  Table t{PersonSchema()};
  ASSERT_TRUE(t.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("bob"), Value::Null()}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.GetValue(0, 1), Value("ann"));
  EXPECT_EQ(t.GetValue(1, 0), Value(2));
  EXPECT_TRUE(t.IsNull(1, 2));
  EXPECT_EQ(t.GetValue(1, 2), Value::Null());
}

TEST(TableTest, TypeMismatchRejected) {
  Table t{PersonSchema()};
  EXPECT_FALSE(t.AppendRow({Value("x"), Value("ann"), Value(30)}).ok());
  EXPECT_FALSE(t.AppendRow({Value(1), Value(5), Value(30)}).ok());
  EXPECT_FALSE(t.AppendRow({Value(1), Value("ann")}).ok());  // arity
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, DictionaryEncoding) {
  Table t{PersonSchema()};
  ASSERT_TRUE(t.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("ann"), Value(31)}).ok());
  // Same string -> same code.
  EXPECT_EQ(t.GetCode(0, 1), t.GetCode(1, 1));
  // Int columns store the value itself.
  EXPECT_EQ(t.GetCode(0, 2), 30);
}

TEST(TableTest, FindCodeDoesNotIntern) {
  Table t{PersonSchema()};
  ASSERT_TRUE(t.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  EXPECT_FALSE(t.FindCode(1, Value("zed")).has_value());
  EXPECT_TRUE(t.FindCode(1, Value("ann")).has_value());
  EXPECT_EQ(t.FindCode(2, Value(99)).value(), 99);  // ints always encode
  EXPECT_EQ(t.FindCode(0, Value::Null()).value(), kNullCode);
}

TEST(TableTest, SharedDictionaries) {
  Table a{PersonSchema()};
  ASSERT_TRUE(a.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  Table b{PersonSchema(), {nullptr, a.dictionary(1), nullptr}};
  ASSERT_TRUE(b.AppendRow({Value(9), Value("ann"), Value(3)}).ok());
  EXPECT_EQ(a.GetCode(0, 1), b.GetCode(0, 1));
}

TEST(TableTest, CloneEmptySharesDictionaries) {
  Table a{PersonSchema()};
  ASSERT_TRUE(a.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  Table b = a.CloneEmpty();
  EXPECT_EQ(b.NumRows(), 0u);
  EXPECT_EQ(b.dictionary(1), a.dictionary(1));
}

TEST(TableTest, CloneCopiesRows) {
  Table a{PersonSchema()};
  ASSERT_TRUE(a.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  Table b = a.Clone();
  ASSERT_TRUE(b.SetValue(0, 2, Value(31)).ok());
  EXPECT_EQ(a.GetValue(0, 2), Value(30));  // deep copy
  EXPECT_EQ(b.GetValue(0, 2), Value(31));
}

TEST(TableTest, FromColumnsAndSet) {
  Table names{PersonSchema()};
  ASSERT_TRUE(names.AppendRow({Value(1), Value("ann"), Value(30)}).ok());
  const int64_t ann = names.GetCode(0, 1);
  Table t{PersonSchema(),
          {nullptr, names.dictionary(1), nullptr},
          {{7, 8, 9}, {ann, kNullCode, ann}, {kNullCode, 41, 42}}};
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.dictionary(1), names.dictionary(1));
  EXPECT_EQ(t.GetValue(2, 1), Value("ann"));
  EXPECT_TRUE(t.IsNull(1, 1));
  EXPECT_TRUE(t.IsNull(0, 2));
  EXPECT_EQ(t.GetValue(1, 2), Value(41));
  ASSERT_TRUE(t.SetValue(1, 1, Value("late")).ok());
  EXPECT_EQ(t.GetValue(1, 1), Value("late"));
  ASSERT_TRUE(t.AppendRow({Value(10), Value("ann"), Value(43)}).ok());
  EXPECT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.GetCode(3, 1), ann);
}

TEST(TableTest, ToStringTruncates) {
  Table t{PersonSchema()};
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value("p"), Value(i)}).ok());
  }
  std::string s = t.ToString(5);
  EXPECT_NE(s.find("(30 rows)"), std::string::npos);
  EXPECT_NE(s.find("more"), std::string::npos);
}

}  // namespace
}  // namespace cextend
