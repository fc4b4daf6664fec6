#include "src/support/str_util.h"

#include <cstdio>
#include <cstring>
#include <ios>
#include <limits>

#include <gtest/gtest.h>

#include "src/support/rng.h"

namespace coign {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrFormatTest, LongOutput) {
  const std::string long_arg(5000, 'a');
  const std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(JoinStringsTest, Basics) {
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"a"}, ","), "a");
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(SplitJoinTest, RoundTrip) {
  const std::string text = "one|two||three";
  EXPECT_EQ(JoinStrings(SplitString(text, '|'), "|"), text);
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("o_bigone", "o_"));
  EXPECT_FALSE(StartsWith("p_bigone", "o_"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(ParseFixedHexTest, AcceptsExactlyTheWrittenForm) {
  uint64_t value = 0;
  ASSERT_TRUE(ParseFixedHex("0000ffff", 8, &value));
  EXPECT_EQ(value, 0xffffu);
  ASSERT_TRUE(ParseFixedHex(StrFormat("%016llx", 0x3ff0000000000000ull), 16, &value));
  EXPECT_EQ(value, 0x3ff0000000000000ull);
  EXPECT_FALSE(ParseFixedHex("ffff", 8, &value));       // Too short.
  EXPECT_FALSE(ParseFixedHex("0000ffff0", 8, &value));  // Too long.
  EXPECT_FALSE(ParseFixedHex("0000FFFF", 8, &value));   // Uppercase is never written.
  EXPECT_FALSE(ParseFixedHex("0000fffg", 8, &value));
  EXPECT_FALSE(ParseFixedHex(" 000ffff", 8, &value));
  EXPECT_EQ(value, 0x3ff0000000000000ull);  // Untouched on failure.
}

TEST(FormatBytesTest, UnitsScale) {
  EXPECT_EQ(FormatBytes(0), "0 B");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4096), "4.0 KB");
  EXPECT_EQ(FormatBytes(3u * 1024 * 1024 + 200 * 1024), "3.2 MB");
}

TEST(ParseNumberTest, NumbersMustFillTheirField) {
  uint32_t u32 = 0;
  EXPECT_TRUE(ParseNumber("4294967295", &u32));
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_TRUE(ParseNumber("007", &u32));
  EXPECT_EQ(u32, 7u);
  // No sign on an unsigned field, no '+' anywhere, nothing out of range,
  // nothing around the digits.
  for (const char* bad : {"-1", "+1", "4294967296", "", " 1", "1 ", "1x", "0x10", "1.0"}) {
    EXPECT_FALSE(ParseNumber(bad, &u32)) << bad;
  }
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u64));
  EXPECT_FALSE(ParseNumber("18446744073709551616", &u64));
  EXPECT_FALSE(ParseNumber("-0", &u64));
  int32_t i32 = 0;
  EXPECT_TRUE(ParseNumber("-7", &i32));
  EXPECT_EQ(i32, -7);
  EXPECT_FALSE(ParseNumber("+7", &i32));
  EXPECT_FALSE(ParseNumber("2147483648", &i32));
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("2.5e-01", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(ParseNumber("4.940656458e-324", &d));
  EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());
  for (const char* bad : {"inf", "nan", "-inf", "1e999", "1e", "0x1p3", "+1.0", "1.0 ", ""}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << bad;
  }
}

TEST(ParseNumberTest, ColonTriples) {
  int a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  EXPECT_TRUE(ParseColonTriple("40:3:12", &a, &b, &c));
  EXPECT_EQ(a, 40);
  EXPECT_EQ(b, 3u);
  EXPECT_EQ(c, 12u);
  for (const char* bad : {"1:1:8x", "1:-1:8", "1:1", "1:1:8:9", "1::8", ":1:8", "1:1:", "a:1:8"}) {
    EXPECT_FALSE(ParseColonTriple(bad, &a, &b, &c)) << bad;
  }
}

TEST(FieldReaderTest, SplitsLinesLikeGetlineAndFieldsOnAnySpace) {
  FieldReader reader("first\n\n a\t b \r\n\v\f\nlast");
  ASSERT_TRUE(reader.NextLine());
  EXPECT_EQ(reader.line(), "first");
  EXPECT_EQ(reader.Field(), "first");
  EXPECT_TRUE(reader.LineDone());
  ASSERT_TRUE(reader.NextLine());
  EXPECT_EQ(reader.line(), "");
  EXPECT_EQ(reader.Field(), "");
  ASSERT_TRUE(reader.NextLine());
  EXPECT_EQ(reader.Field(), "a");
  EXPECT_EQ(reader.LineTail(), "\t b \r");
  EXPECT_EQ(reader.Field(), "b");
  EXPECT_TRUE(reader.LineDone());
  EXPECT_EQ(reader.unread(), "\v\f\nlast");
  ASSERT_TRUE(reader.NextLine());
  EXPECT_EQ(reader.Field(), "");
  ASSERT_TRUE(reader.NextLine());
  EXPECT_EQ(reader.line(), "last");
  EXPECT_EQ(reader.unread(), "");
  EXPECT_FALSE(reader.NextLine());

  // A trailing '\n' ends the last line; it does not start an empty one.
  FieldReader one("7 8\n");
  ASSERT_TRUE(one.NextLine());
  uint32_t x = 0;
  int y = 0;
  EXPECT_TRUE(one.Number(&x));
  EXPECT_TRUE(one.Number(&y));
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(y, 8);
  EXPECT_FALSE(one.Number(&x));
  EXPECT_FALSE(one.NextLine());
}

TEST(StrAppendTest, WritesIntegersLikePrintf) {
  std::string out = "x";
  StrAppend(&out, ' ', uint32_t{4294967295u}, " ", int32_t{-2147483647 - 1}, std::string(" "),
            uint64_t{18446744073709551615ull}, ':', size_t{0}, std::string_view(""), 7);
  EXPECT_EQ(out, "x 4294967295 -2147483648 18446744073709551615:07");
}

std::string PrintfScientific9(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9e", value);
  return buffer;
}

std::string Scientific9(double value) {
  std::string out;
  AppendScientific9(&out, value);
  return out;
}

// The profile log's compute seconds were written with "%.9e"; the
// to_chars writer must produce the same bytes for every positive double,
// subnormals and round-half-even ties included.
TEST(AppendScientific9Test, MatchesPrintfOnASeededSweep) {
  Rng rng(15);
  int checked = 0;
  const auto check = [&checked](double value) {
    ASSERT_EQ(Scientific9(value), PrintfScientific9(value)) << std::hexfloat << value;
    ++checked;
  };
  for (int i = 0; i < 4000; ++i) {
    // Any finite positive double: a random mantissa under a random
    // exponent field, 0 (subnormal) through 2046.
    const uint64_t exponent = static_cast<uint64_t>(rng.UniformInt(0, 2046));
    const uint64_t bits = (exponent << 52) | (rng.NextUint64() >> 12);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (value > 0.0) {
      check(value);
    }
  }
  for (int i = 0; i < 3000; ++i) {
    const uint64_t bits = (rng.NextUint64() >> 12) | 1;  // Subnormals.
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    check(value);
  }
  for (int i = 0; i < 3000; ++i) {
    // The magnitudes profiled compute seconds take.
    check(rng.UniformDouble(1e-9, 1e3));
  }
  // Exact decimal ties at the tenth significant digit, both parities, and
  // the extremes.
  for (const double value : {1234567890.5, 1234567891.5, 1.0000000005e9, 2.5, 0.125, 1.0,
                             9.9999999995e-1, 9999999999.5,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max()}) {
    check(value);
  }
  EXPECT_GE(checked, 10000);
}

}  // namespace
}  // namespace coign
