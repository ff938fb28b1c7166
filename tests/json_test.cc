// common/json: the wire document model. Round trips must be lossless for
// every shape the /v1 protocol uses, the writer must emit valid JSON for
// hostile strings, and the strict parser must reject malformed documents
// with a useful byte offset instead of guessing.

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace newslink {
namespace json {
namespace {

/// Parse `text` or fail the test with the parser's message.
Value MustParse(const std::string& text) {
  Result<Value> parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " for " << text;
  return parsed.ok() ? std::move(parsed).value() : Value();
}

TEST(JsonWriterTest, Scalars) {
  EXPECT_EQ(Value::Null().Dump(), "null");
  EXPECT_EQ(Value::Bool(true).Dump(), "true");
  EXPECT_EQ(Value::Bool(false).Dump(), "false");
  EXPECT_EQ(Value::Str("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Value::Number(1.5).Dump(), "1.5");
}

TEST(JsonWriterTest, IntegralNumbersRenderWithoutDecimalPoint) {
  EXPECT_EQ(Value::Int(0).Dump(), "0");
  EXPECT_EQ(Value::Int(-42).Dump(), "-42");
  EXPECT_EQ(Value::Uint(9007199254740992ull).Dump(), "9007199254740992");
}

TEST(JsonWriterTest, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(Value::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(Value::Number(std::numeric_limits<double>::quiet_NaN()).Dump(),
            "null");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(Value::Str("a\"b\\c").Dump(), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Value::Str("line\nbreak\ttab").Dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Value::Str(std::string("nul\0byte", 8)).Dump(),
            "\"nul\\u0000byte\"");
}

TEST(JsonWriterTest, Utf8PassesThroughVerbatim) {
  const std::string s = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x97\x9e";
  EXPECT_EQ(Value::Str(s).Dump(), "\"" + s + "\"");
}

TEST(JsonWriterTest, ObjectsPreserveInsertionOrder) {
  Value v = Value::Object();
  v.Set("zebra", Value::Int(1));
  v.Set("alpha", Value::Int(2));
  v.Set("mid", Value::Str("x"));
  EXPECT_EQ(v.Dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":\"x\"}");
}

TEST(JsonParserTest, ScalarsAndWhitespace) {
  EXPECT_TRUE(MustParse(" null ").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool(true));
  EXPECT_DOUBLE_EQ(MustParse("-2.75e2").AsDouble(), -275.0);
  EXPECT_EQ(MustParse("\t42\n").AsInt(), 42);
  EXPECT_TRUE(MustParse("17").integral());
  EXPECT_FALSE(MustParse("17.5").integral());
}

TEST(JsonParserTest, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(MustParse("\"a\\u0041\\n\"").AsString(), "aA\n");
  // U+1F5DE (rolled-up newspaper) as a surrogate pair.
  EXPECT_EQ(MustParse("\"\\ud83d\\uddde\"").AsString(), "\xf0\x9f\x97\x9e");
}

TEST(JsonParserTest, NestedDocument) {
  const Value v = MustParse(
      "{\"hits\": [{\"doc_index\": 3, \"score\": 0.5, "
      "\"paths\": [\"a\", \"b\"]}], \"epoch\": 2}");
  const Value* hits = v.Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->at(0).Find("doc_index")->AsUint(), 3u);
  EXPECT_EQ(hits->at(0).Find("paths")->size(), 2u);
  EXPECT_EQ(v.Find("epoch")->AsUint(), 2u);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, RoundTripIsStable) {
  const std::string wire =
      "{\"query\":\"berlin \\\"wall\\\"\",\"k\":10,\"beta\":0.25,"
      "\"flags\":[true,false,null],\"nested\":{\"deep\":[1,2,3]}}";
  const Value once = MustParse(wire);
  EXPECT_EQ(once.Dump(), wire);
  EXPECT_EQ(MustParse(once.Dump()).Dump(), wire);
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",          "{",        "[1,",       "{\"a\":}",  "nul",
      "tru",       "01",       "+1",        "1.",        "\"unterminated",
      "\"\\q\"",   "{'a':1}",  "[1 2]",     "{\"a\" 1}", "\"\\ud83d\"",
      "{\"a\":1,}"};
  for (const char* text : bad) {
    EXPECT_FALSE(Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} {}").ok());
  EXPECT_FALSE(Parse("1 1").ok());
  EXPECT_FALSE(Parse("null x").ok());
}

TEST(JsonParserTest, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 8; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 8; ++i) deep += "]";
  EXPECT_TRUE(Parse(deep, /*max_depth=*/8).ok());
  EXPECT_FALSE(Parse(deep, /*max_depth=*/7).ok());
}

TEST(JsonParserTest, ErrorsCarryByteOffset) {
  const Result<Value> r = Parse("{\"a\": nope}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("at byte"), std::string::npos)
      << r.status().ToString();
}

/// The writer this codec replaced, kept here as an oracle: the shortest
/// "%.*g" precision that strtod reads back to the same double.
std::string TrialLoopNumberToString(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Dump `v` alone and parse it back; the parsed double's bits must equal
/// the original's, and the old writer's text must parse to them too.
void ExpectBitExactRoundTrip(double v) {
  const std::string text = Value::Number(v).Dump();
  const Result<Value> back = Parse(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << " for " << text;
  EXPECT_EQ(Bits(back.value().AsDouble()), Bits(v))
      << text << " parsed to a different double";
  const Result<Value> old = Parse(TrialLoopNumberToString(v));
  ASSERT_TRUE(old.ok()) << TrialLoopNumberToString(v);
  EXPECT_EQ(Bits(old.value().AsDouble()), Bits(back.value().AsDouble()))
      << text << " vs old " << TrialLoopNumberToString(v);
}

TEST(JsonNumberTest, RandomBitPatternsRoundTripBitExact) {
  std::mt19937_64 rng(20240613);
  size_t checked = 0;
  while (checked < 100000) {
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    // NaN and infinities render as null; -0.0 renders as the integer 0.
    if (!std::isfinite(v) || v == 0.0) continue;
    ExpectBitExactRoundTrip(v);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
    ++checked;
  }
}

TEST(JsonNumberTest, EdgeCasesRoundTripBitExact) {
  const double two53 = 9007199254740992.0;
  const double edge[] = {
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_MAX,
      -DBL_MAX,
      0.1 + 0.2,
      0.1,
      1.0 / 3.0,
      0.0001,
      1e-5,
      two53 - 1,
      two53,
      two53 + 2,  // 2^53 + 1 is not representable
      -(two53 + 2),
      std::nextafter(two53, 0.0) + 0.5,
      1e16,
      1.2345678901234567e17,
      6.9e19,
      9.999999999999999e20,
      1e21,
      1e22,
      123.456,
      -2.5e-300,
  };
  for (double v : edge) ExpectBitExactRoundTrip(v);
}

TEST(JsonNumberTest, WriterTextIsShortest) {
  EXPECT_EQ(NumberToString(0.1 + 0.2, false), "0.30000000000000004");
  EXPECT_EQ(NumberToString(0.25, false), "0.25");
  EXPECT_EQ(NumberToString(-1.5, false), "-1.5");
  EXPECT_EQ(NumberToString(5e-324, false), "5e-324");
  // Integral values below 2^53 stay plain integers.
  EXPECT_EQ(NumberToString(1e15, false), "1000000000000000");
  EXPECT_EQ(NumberToString(-0.0, false), "0");
  EXPECT_EQ(NumberToString(3.0, true), "3");
  // DumpTo appends the same text.
  Value arr = Value::Array();
  arr.Append(Value::Number(0.1));
  arr.Append(Value::Int(-7));
  EXPECT_EQ(arr.Dump(), "[0.1,-7]");
}

TEST(JsonNumberTest, OverflowRejectedUnderflowReadsAsSignedZero) {
  EXPECT_FALSE(Parse("1e400").ok());
  EXPECT_FALSE(Parse("-1e400").ok());
  EXPECT_FALSE(Parse("1.7976931348623159e308").ok());
  EXPECT_FALSE(Parse("[1e99999999999999999999999]").ok());
  const std::string huge_int = "1" + std::string(400, '0');
  EXPECT_FALSE(Parse(huge_int).ok());
  EXPECT_FALSE(Parse(huge_int + "e-80").ok());
  EXPECT_TRUE(Parse(huge_int + "e-300").ok());

  const Value tiny = MustParse("1e-400");
  EXPECT_EQ(Bits(tiny.AsDouble()), Bits(0.0));
  EXPECT_FALSE(tiny.integral());
  EXPECT_EQ(Bits(MustParse("-1e-400").AsDouble()), Bits(-0.0));
  EXPECT_EQ(Bits(MustParse("2e-324").AsDouble()), Bits(0.0));
  EXPECT_EQ(Bits(MustParse("0." + std::string(400, '0') + "1e+5").AsDouble()),
            Bits(0.0));
  EXPECT_EQ(Bits(MustParse("1e-99999999999999999999999").AsDouble()),
            Bits(0.0));
  // Subnormals parse to their value, not to an error.
  EXPECT_EQ(MustParse("4.9406564584124654e-324").AsDouble(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(MustParse("0e999999").AsDouble(), 0.0);
}

}  // namespace
}  // namespace json
}  // namespace newslink
