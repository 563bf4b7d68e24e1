#include "util/string_util.h"

#include <gtest/gtest.h>

namespace cextend {
namespace {

TEST(StrSplitTest, Basic) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StrSplitTest, KeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StrJoinTest, Basic) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StrTrimTest, Basic) {
  EXPECT_EQ(StrTrim("  x  "), "x");
  EXPECT_EQ(StrTrim("\t\r\nx\n"), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("a b"), "a b");
}

TEST(StrFormatTest, Basic) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ParseInt64Test, Valid) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("  13  ").value(), 13);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(ParseInt64Test, Invalid) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("x").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
}

TEST(ParseDoubleTest, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5z").has_value());
}

TEST(FormatDurationTest, Ranges) {
  EXPECT_EQ(FormatDuration(0.0000019), "2us");
  EXPECT_EQ(FormatDuration(0.25), "250ms");
  EXPECT_EQ(FormatDuration(1.5), "1.50s");
  EXPECT_EQ(FormatDuration(300.0), "5.00m");
  EXPECT_EQ(FormatDuration(7200.0), "2.00h");
}

TEST(FormatDurationTest, NegativeTakesTheMagnitudesUnit) {
  EXPECT_EQ(FormatDuration(-0.25), "-250ms");
  EXPECT_EQ(FormatDuration(-1.5), "-1.50s");
  EXPECT_EQ(FormatDuration(-7200.0), "-2.00h");
}

}  // namespace
}  // namespace cextend
