#include "src/serve/jsonv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace affsched {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << text << ": " << error;
  return value;
}

bool Fails(const std::string& text) {
  JsonValue value;
  std::string error;
  return !ParseJson(text, &value, &error);
}

TEST(JsonvTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").IsNull());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool(true));
  EXPECT_EQ(MustParse("42").AsInt64(), 42);
  EXPECT_EQ(MustParse("-17").AsInt64(), -17);
  EXPECT_DOUBLE_EQ(MustParse("2.5e3").AsDouble(), 2500.0);
  EXPECT_EQ(MustParse("\"hi\\n\\\"there\\\"\"").string_value, "hi\n\"there\"");
  EXPECT_EQ(MustParse("\"\\u0041\\u00e9\"").string_value, "A\xc3\xa9");
}

TEST(JsonvTest, ParsesContainersAndLookup) {
  const JsonValue doc = MustParse(
      "{\"op\":\"submit\",\"jobs\":4,\"nested\":{\"xs\":[1,2,3]},\"dup\":1,\"dup\":2}");
  ASSERT_TRUE(doc.IsObject());
  EXPECT_EQ(doc.Get("op")->string_value, "submit");
  EXPECT_EQ(doc.Get("jobs")->AsUint64(), 4u);
  const JsonValue* xs = doc.Get("nested")->Get("xs");
  ASSERT_TRUE(xs != nullptr && xs->IsArray());
  ASSERT_EQ(xs->array.size(), 3u);
  EXPECT_EQ(xs->array[2].AsInt64(), 3);
  EXPECT_EQ(doc.Get("dup")->AsInt64(), 2);  // duplicates keep the last
  EXPECT_EQ(doc.Get("absent"), nullptr);
  EXPECT_TRUE(MustParse("{}").IsObject());
  EXPECT_EQ(MustParse("[1, 2.5, \"x\", true, null]").array.size(), 5u);
  EXPECT_TRUE(MustParse("{\"a\": {\"b\": [1]}}").Get("a")->Get("b")->IsArray());
}

TEST(JsonvTest, RejectsMalformedAndTruncatedInput) {
  // Truncation in every position a SIGKILL mid-write could leave behind.
  EXPECT_TRUE(Fails(""));
  EXPECT_TRUE(Fails("{"));
  EXPECT_TRUE(Fails("{\"a\":"));
  EXPECT_TRUE(Fails("{\"a\":1"));
  EXPECT_TRUE(Fails("{\"a\":1,"));
  EXPECT_TRUE(Fails("[1,2"));
  EXPECT_TRUE(Fails("\"unterminated"));
  EXPECT_TRUE(Fails("12."));
  // Outright garbage and trailing garbage.
  EXPECT_TRUE(Fails("nul"));
  EXPECT_TRUE(Fails("nan"));
  EXPECT_TRUE(Fails("{} trailing"));
  EXPECT_TRUE(Fails("{\"a\" 1}"));
  EXPECT_TRUE(Fails("{'a':1}"));
  EXPECT_TRUE(Fails("[1,]"));
}

TEST(JsonvTest, ErrorsCarryByteOffsets) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("[1, x]", &value, &error));
  EXPECT_NE(error.find("4"), std::string::npos) << error;
}

TEST(JsonvTest, ExactDoubleRoundTripsBitIdentically) {
  const double cases[] = {0.0,
                          1.0,
                          -3.0,
                          0.1,
                          1.0 / 3.0,
                          123456789.123456789,
                          5e-324,  // min subnormal
                          std::numeric_limits<double>::max(),
                          9007199254740993.0};
  for (const double value : cases) {
    const std::string text = ExactDouble(value);
    const double back = MustParse(text).AsDouble();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0)
        << value << " -> " << text << " -> " << back;
  }
  // Integral values render without an exponent or fraction (stable, compact).
  EXPECT_EQ(ExactDouble(42.0), "42");
  EXPECT_EQ(ExactDouble(-7.0), "-7");
  // Non-finite values are not representable; strict readers must reject.
  EXPECT_EQ(ExactDouble(std::nan("")), "null");
  EXPECT_EQ(ExactDouble(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonvTest, NumbersKeepSourceText) {
  const JsonValue value = MustParse("0.10000000000000001");
  EXPECT_EQ(value.number, "0.10000000000000001");
  EXPECT_EQ(value.AsDouble(), 0.1);
}

TEST(JsonvTest, DepthCapStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) {
    deep += "[";
  }
  EXPECT_TRUE(Fails(deep));
}

}  // namespace
}  // namespace affsched
