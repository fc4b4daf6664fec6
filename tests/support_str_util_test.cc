#include "src/support/str_util.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace coign
