#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "types/compare_op.h"
#include "types/date.h"
#include "types/schema.h"
#include "types/value.h"

namespace qprog {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_EQ(Value::Double(1.5).double_value(), 1.5);
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_EQ(Value::Date(100).date_value(), 100);
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_EQ(Value::Int64(3).AsDouble(), 3.0);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Date(10).AsDouble(), 10.0);
  EXPECT_EQ(Value::Bool(true).AsDouble(), 1.0);
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_EQ(Value::Int64(1).Compare(Value::Double(1.0)), 0);
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, LargeInt64ComparedExactly) {
  // Beyond double's 53-bit mantissa; int64 path must stay exact.
  int64_t big = (int64_t{1} << 60) + 1;
  EXPECT_GT(Value::Int64(big).Compare(Value::Int64(big - 1)), 0);
  EXPECT_EQ(Value::Int64(big).Compare(Value::Int64(big)), 0);
}

TEST(ValueTest, GroupingEqualityTreatsNullEqual) {
  EXPECT_TRUE(Value::Null().EqualsForGrouping(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsForGrouping(Value::Int64(0)));
  EXPECT_TRUE(Value::Int64(1).EqualsForGrouping(Value::Double(1.0)));
  EXPECT_FALSE(Value::String("1").EqualsForGrouping(Value::Int64(1)));
}

TEST(ValueTest, HashConsistentWithGroupingEquality) {
  EXPECT_EQ(Value::Int64(5).Hash(), Value::Double(5.0).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::String("q").Hash(), Value::String("q").Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Date(0).ToString(), "1970-01-01");
}

// Copies and moves across every type transition: a string's bytes follow
// only string sources, and a value that stops being a string reads as the
// new type with no string left behind.
TEST(ValueTest, CopyAndMoveAcrossTypeTransitions) {
  const std::string long_text(40, 'z');  // past the small-string buffer
  const std::vector<Value> samples = {
      Value::Null(),        Value::Bool(true),     Value::Int64(-7),
      Value::Double(2.5),   Value::Date(19000),    Value::String("short"),
      Value::String(long_text)};
  for (const Value& from : samples) {
    for (const Value& to : samples) {
      Value copied = to;
      copied = from;  // copy-assign over every starting type
      EXPECT_EQ(copied.type(), from.type());
      EXPECT_TRUE(copied.EqualsForGrouping(from)) << from << " over " << to;
      EXPECT_EQ(copied.ToString(), from.ToString());

      Value moved = to;
      Value source = from;
      moved = std::move(source);  // move-assign over every starting type
      EXPECT_EQ(moved.type(), from.type());
      EXPECT_TRUE(moved.EqualsForGrouping(from)) << from << " over " << to;

      // A moved-from value stays usable: reassign it and read it back.
      source = to;
      EXPECT_TRUE(source.EqualsForGrouping(to));
    }
    Value constructed(from);
    EXPECT_TRUE(constructed.EqualsForGrouping(from));
    Value temp = from;
    Value move_constructed(std::move(temp));
    EXPECT_TRUE(move_constructed.EqualsForGrouping(from));
    temp = Value::Int64(3);
    EXPECT_EQ(temp.int64_value(), 3);
  }

  // string -> int -> string: no bytes of the old string survive.
  Value v = Value::String(long_text);
  v = Value::Int64(42);
  EXPECT_EQ(v.type(), TypeId::kInt64);
  EXPECT_EQ(v.int64_value(), 42);
  EXPECT_EQ(v.ToString(), "42");
  v = Value::String("ab");
  EXPECT_EQ(v.string_value(), "ab");
  v = Value::Double(1.0);
  EXPECT_TRUE(v.EqualsForGrouping(Value::Int64(1)));
  EXPECT_EQ(v.Hash(), Value::Int64(1).Hash());
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  for (const Value& sample :
       {Value::Int64(9), Value::String("self"),
        Value::String(std::string(33, 'q')), Value::Null()}) {
    Value v = sample;
    Value& alias = v;
    v = alias;
    EXPECT_TRUE(v.EqualsForGrouping(sample));
    EXPECT_EQ(v.ToString(), sample.ToString());
    // Self-move leaves a valid (unspecified) value that takes a new one.
    v = std::move(alias);
    v = Value::String("after");
    EXPECT_EQ(v.string_value(), "after");
  }
}

TEST(RowTest, RowHashAndEquality) {
  Row a = {Value::Int64(1), Value::String("x")};
  Row b = {Value::Double(1.0), Value::String("x")};
  Row c = {Value::Int64(2), Value::String("x")};
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
  EXPECT_FALSE(RowEq()(a, c));
  EXPECT_FALSE(RowEq()(a, Row{Value::Int64(1)}));
}

TEST(RowTest, RowToString) {
  Row r = {Value::Int64(1), Value::Null()};
  EXPECT_EQ(RowToString(r), "(1, NULL)");
}

TEST(DateTest, EpochRoundTrip) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  int y, m, d;
  CivilFromDays(0, &y, &m, &d);
  EXPECT_EQ(y, 1970);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(d, 1);
}

TEST(DateTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
}

TEST(DateTest, RoundTripManyDates) {
  for (int32_t days = -20000; days <= 40000; days += 137) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days);
  }
}

TEST(DateTest, ParseAndFormat) {
  auto d = ParseDate("1995-03-15");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(FormatDate(d.value()), "1995-03-15");
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("1995-13-01").ok());
  EXPECT_FALSE(ParseDate("1995-02-30").ok());
}

TEST(DateTest, LeapYearHandling) {
  EXPECT_TRUE(ParseDate("2000-02-29").ok());   // 400-divisible
  EXPECT_FALSE(ParseDate("1900-02-29").ok());  // 100 not 400
  EXPECT_TRUE(ParseDate("1996-02-29").ok());
}

TEST(DateTest, AddMonthsClampsDay) {
  int32_t jan31 = ParseDate("1995-01-31").value();
  EXPECT_EQ(FormatDate(AddMonths(jan31, 1)), "1995-02-28");
  EXPECT_EQ(FormatDate(AddMonths(jan31, -1)), "1994-12-31");
  int32_t d = ParseDate("1995-06-15").value();
  EXPECT_EQ(FormatDate(AddMonths(d, 3)), "1995-09-15");
  EXPECT_EQ(FormatDate(AddMonths(d, 12)), "1996-06-15");
}

TEST(DateTest, AddYears) {
  int32_t feb29 = ParseDate("1996-02-29").value();
  EXPECT_EQ(FormatDate(AddYears(feb29, 1)), "1997-02-28");
  EXPECT_EQ(FormatDate(AddYears(feb29, 4)), "2000-02-29");
}

TEST(SchemaTest, FindField) {
  Schema s({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(s.FindField("a"), 0);
  EXPECT_EQ(s.FindField("b"), 1);
  EXPECT_EQ(s.FindField("c"), -1);
  EXPECT_EQ(s.num_fields(), 2u);
}

TEST(SchemaTest, Concat) {
  Schema l({{"a", TypeId::kInt64}});
  Schema r({{"b", TypeId::kDouble}, {"c", TypeId::kString}});
  Schema joined = Schema::Concat(l, r);
  EXPECT_EQ(joined.num_fields(), 3u);
  EXPECT_EQ(joined.field(2).name, "c");
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", TypeId::kInt64}});
  EXPECT_EQ(s.ToString(), "a:BIGINT");
}

TEST(CompareOpTest, EvalAllOps) {
  EXPECT_TRUE(EvalCompareOp(CompareOp::kEq, 0));
  EXPECT_FALSE(EvalCompareOp(CompareOp::kEq, 1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kNe, -1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kLt, -1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kLe, 0));
  EXPECT_FALSE(EvalCompareOp(CompareOp::kLe, 1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kGt, 1));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kGe, 0));
}

TEST(CompareOpTest, Names) {
  EXPECT_STREQ(CompareOpToString(CompareOp::kLe), "<=");
  EXPECT_STREQ(CompareOpToString(CompareOp::kNe), "<>");
}

}  // namespace
}  // namespace qprog
