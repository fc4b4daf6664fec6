#include "src/profile/log_file.h"

#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "src/com/class_registry.h"

#include "src/support/str_util.h"

namespace coign {
namespace {

IccProfile SampleProfile() {
  IccProfile profile;
  ClassificationInfo info;
  info.id = 0;
  info.clsid = Guid::FromName("clsid:Reader");
  info.class_name = "App.Doc Reader";  // Name with a space, on purpose.
  info.api_usage = kApiStorage;
  profile.RecordClassification(info);
  profile.RecordInstantiation(0);
  ClassificationInfo info2;
  info2.id = 3;
  info2.clsid = Guid::FromName("clsid:Ui");
  info2.class_name = "App.Ui";
  info2.api_usage = kApiGui;
  profile.RecordClassification(info2);

  CallKey key;
  key.src = 0;
  key.dst = 3;
  key.iid = Guid::FromName("iid:IView");
  key.method = 2;
  profile.RecordCall(key, 1000, 64, true);
  profile.RecordCall(key, 3, 100000, false);
  profile.RecordCompute(0, 0.125);
  return profile;
}

void ExpectEquivalent(const IccProfile& a, const IccProfile& b) {
  EXPECT_EQ(a.total_calls(), b.total_calls());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_DOUBLE_EQ(a.total_compute_seconds(), b.total_compute_seconds());
  EXPECT_EQ(a.SortedClassificationIds(), b.SortedClassificationIds());
  for (ClassificationId id : a.SortedClassificationIds()) {
    const ClassificationInfo* ia = a.FindClassification(id);
    const ClassificationInfo* ib = b.FindClassification(id);
    ASSERT_NE(ib, nullptr);
    EXPECT_EQ(ia->class_name, ib->class_name);
    EXPECT_EQ(ia->clsid, ib->clsid);
    EXPECT_EQ(ia->api_usage, ib->api_usage);
    EXPECT_EQ(ia->instance_count, ib->instance_count);
  }
  ASSERT_EQ(a.calls().size(), b.calls().size());
  for (const auto& [key, summary] : a.calls()) {
    ASSERT_TRUE(b.calls().contains(key));
    const CallSummary& other = b.calls().at(key);
    EXPECT_EQ(summary.requests, other.requests);
    EXPECT_EQ(summary.replies, other.replies);
    EXPECT_EQ(summary.non_remotable_calls, other.non_remotable_calls);
  }
}

TEST(LogFileTest, SerializeParseRoundTrip) {
  const IccProfile profile = SampleProfile();
  Result<IccProfile> parsed = ParseProfile(SerializeProfile(profile));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectEquivalent(profile, *parsed);
}

TEST(LogFileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseProfile("").ok());
  EXPECT_FALSE(ParseProfile("not a profile").ok());
  EXPECT_FALSE(ParseProfile("coign-profile v1\nbogus keyword here\n").ok());
}

TEST(LogFileTest, ParseRejectsMalformedLines) {
  const std::string guid = Guid::FromName("iid:IView").ToString();
  const std::string call = "call 0 1 " + guid + " 2 0 req ";
  for (const std::string& line : {
           // Missing fields, non-numbers, trailing junk, unterminated histograms.
           std::string("compute 5 abc"), std::string("compute 5"), std::string("compute 5 1.0 x"),
           std::string("alloc x"), std::string("alloc 1"), std::string("alloc 1 2 3"),
           "classification x " + guid + " 0 1 Name", "classification 1 " + guid + " 0",
           "call 0 1 " + guid + " 2", call + "1:1:8 ; rep ; junk", call + "1:1:8 ; rep 1:1:8",
           // A sign on an unsigned field, or an id out of range.
           std::string("alloc -1 5"), std::string("alloc +1 5"), std::string("alloc 1 -5"),
           std::string("alloc 4294967296 5"), std::string("compute -3 1.0"),
           std::string("compute 4294967296 1.0"), "classification -1 " + guid + " 0 1 Name",
           "classification 1 " + guid + " -1 1 Name", "classification 1 " + guid + " 0 -1 Name",
           "call -1 1 " + guid + " 2 0 req ; rep ;", "call 0 4294967296 " + guid + " 2 0 req ; rep ;",
           "call 0 1 " + guid + " -2 0 req ; rep ;", "call 0 1 " + guid + " 2 -1 req ; rep ;",
           // A non-finite compute time.
           std::string("compute 5 inf"), std::string("compute 5 nan"),
           // Histogram fields: trailing characters, a signed count or byte
           // total, a bucket outside [0, kMaxBucket].
           call + "1:1:8x ; rep ;", call + "1:-1:8 ; rep ;", call + "1:1:-8 ; rep ;",
           call + "99:1:8 ; rep ;", call + "-3:1:8 ; rep ;", call + "41:1:8 ; rep ;",
           call + "; rep 1:1:8x ;", call + "; rep 64:1:8 ;", call + "1:1 ; rep ;"}) {
    const Result<IccProfile> parsed = ParseProfile("coign-profile v1\n" + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // Records the writer cannot carry back, after a valid classification
  // line: a zero-count histogram field, a compute time that is not
  // positive, a compute line for an id with no classification line, one
  // that comes before its classification line, a second compute line for
  // one id (two 1e308 lines would sum to inf), compute ids out of order,
  // and a time with more digits than the writer prints.
  const std::string classification = "classification 1 " + guid + " 0 1 Name\n";
  const std::string two = classification + "classification 2 " + guid + " 0 1 Other\n";
  for (const std::string& lines : {
           classification + call + "1:0:8 ; rep ;", classification + call + "; rep 3:0:0 ;",
           classification + call + "1:1:8 2:0:0 ; rep ;", classification + "compute 1 0",
           classification + "compute 1 -0.0", classification + "compute 1 -2.5e-01",
           classification + "compute 2 1.0", "compute 1 1.0\n" + classification,
           classification + "compute 1 1e308\ncompute 1 1e308",
           classification + "compute 1 2.5e-01\ncompute 1 2.5e-01",
           two + "compute 2 1.0\ncompute 1 1.0", classification + "compute 1 0.1234567890123",
           classification + "compute 1 15234567891e-03"}) {
    const Result<IccProfile> parsed = ParseProfile("coign-profile v1\n" + lines + "\n");
    ASSERT_FALSE(parsed.ok()) << lines;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << lines;
  }
  // The same keywords, well formed, still parse; buckets 0 and kMaxBucket
  // are both in range, and a short time the writer would print longer
  // (0.5) reads back the same, so it is accepted.
  const Result<IccProfile> parsed = ParseProfile(
      "coign-profile v1\nclassification 1 " + guid + " 0 1 Two Words\nalloc 1 64\n" +
      "compute 1 2.5e-01\nclassification 3 " + guid + " 0 1 Other\ncompute 3 0.5\n" +
      "call 0 1 " + guid + " 2 0 req 0:1:1 40:1:8 ; rep ;\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->FindClassification(1)->class_name, "Two Words");
  EXPECT_EQ(parsed->total_calls(), 2u);
  EXPECT_EQ(parsed->total_compute_seconds(), 0.75);
}

// Every record kind and the format's corner cases: a class name with
// spaces, an empty class name, compute times at both ends of the double
// range, and a call whose histogram spans buckets 0 and kMaxBucket next
// to an empty one.
IccProfile GoldenProfile() {
  IccProfile profile;
  ClassificationInfo named;
  named.id = 2;
  named.clsid = Guid{0x0123456789abcdefull, 0xfedcba9876543210ull};
  named.class_name = "App.Doc Reader";
  named.api_usage = 5;
  named.instance_count = 3;
  profile.RecordClassification(named);
  profile.RecordAllocation(2, 4096);
  profile.RecordCompute(2, 1.5e300);
  ClassificationInfo unnamed;
  unnamed.id = 7;
  unnamed.clsid = Guid{0, 0xabc};
  unnamed.instance_count = 1;
  profile.RecordClassification(unnamed);
  profile.RecordCompute(7, std::numeric_limits<double>::denorm_min() * 12345);

  CallKey key;
  key.src = 2;
  key.dst = 7;
  key.iid = Guid{0xfeed, 0xbeef};
  key.method = 4;
  ExponentialHistogram requests;
  requests.AddBucket(0, 2, 1);
  requests.AddBucket(ExponentialHistogram::kMaxBucket, 1, uint64_t{1} << 41);
  profile.InjectCallSummary(key, requests, ExponentialHistogram(), 1);
  return profile;
}

constexpr char kGoldenProfileText[] =
    "coign-profile v1\n"
    "classification 2 {0123456789abcdef-fedcba9876543210} 5 3 App.Doc Reader\n"
    "alloc 2 4096\n"
    "compute 2 1.500000000e+300\n"
    "classification 7 {0000000000000000-0000000000000abc} 0 1 \n"
    "compute 7 6.099240398e-320\n"
    "call 2 7 {000000000000feed-000000000000beef} 4 1 req 0:2:1 40:1:2199023255552 ; rep ;\n";

TEST(LogFileTest, GoldenTextIsPinnedByteForByte) {
  const IccProfile golden = GoldenProfile();
  EXPECT_EQ(SerializeProfile(golden), kGoldenProfileText);
  const Result<IccProfile> parsed = ParseProfile(kGoldenProfileText);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectEquivalent(golden, *parsed);
  EXPECT_EQ(parsed->FindClassification(2)->allocation_bytes, 4096u);
  EXPECT_EQ(parsed->FindClassification(7)->class_name, "");
  EXPECT_EQ(parsed->ComputeSecondsOf(2), 1.5e300);
  EXPECT_EQ(parsed->ComputeSecondsOf(7), std::numeric_limits<double>::denorm_min() * 12345);
  EXPECT_EQ(SerializeProfile(*parsed), kGoldenProfileText);
}

// Fields split on any run of spaces and tabs, and a '\r' before the '\n'
// is a field space too. The class name is the raw rest of its line after
// one space, so it keeps any further spaces, tabs and the '\r'. The magic
// line must match exactly, so a CRLF header is rejected.
TEST(LogFileTest, ParsesCrlfTabsAndSpaceRuns) {
  const std::string guid = Guid::FromName("iid:IView").ToString();
  const Result<IccProfile> parsed = ParseProfile(
      "coign-profile v1\n"
      "classification\t1   " + guid + " \t0  2  Two  Words\r\n" +
      "\n"
      "  alloc 1\t\t64 \r\n" +
      "compute   1 2.500000000e-01\r\n" +
      "call 0 1\t" + guid + "  2 0  req\t1:1:8   3:2:20 ;\trep ; \r\n" +
      "classification 3 " + guid + " 0 1\tTabbed\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->FindClassification(1)->class_name, " Two  Words\r");
  EXPECT_EQ(parsed->FindClassification(1)->instance_count, 2u);
  EXPECT_EQ(parsed->FindClassification(1)->allocation_bytes, 64u);
  EXPECT_EQ(parsed->FindClassification(3)->class_name, "\tTabbed\r");
  EXPECT_EQ(parsed->ComputeSecondsOf(1), 0.25);
  EXPECT_EQ(parsed->total_calls(), 3u);
  EXPECT_EQ(parsed->total_bytes(), 28u);

  const Result<IccProfile> crlf_header = ParseProfile("coign-profile v1\r\nalloc 1 64\r\n");
  EXPECT_EQ(crlf_header.status().code(), StatusCode::kInvalidArgument);
  // A line of spaces alone is not blank: it has no keyword.
  EXPECT_EQ(ParseProfile("coign-profile v1\n \r\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LogFileTest, FileRoundTripAndMerge) {
  const IccProfile profile = SampleProfile();
  const std::string path1 = "/tmp/coign_test_profile1.log";
  const std::string path2 = "/tmp/coign_test_profile2.log";
  ASSERT_TRUE(WriteProfileFile(profile, path1).ok());
  ASSERT_TRUE(WriteProfileFile(profile, path2).ok());

  Result<IccProfile> one = ReadProfileFile(path1);
  ASSERT_TRUE(one.ok());
  ExpectEquivalent(profile, *one);

  // "Log files from multiple profiling scenarios may be combined."
  Result<IccProfile> merged = MergeProfileFiles({path1, path2});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->total_calls(), profile.total_calls() * 2);
  EXPECT_EQ(merged->total_bytes(), profile.total_bytes() * 2);
  EXPECT_EQ(merged->FindClassification(0)->instance_count, 2u);

  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(LogFileTest, MissingFileErrors) {
  EXPECT_EQ(ReadProfileFile("/tmp/definitely_missing_coign_profile.log").status().code(),
            StatusCode::kNotFound);
}

TEST(LogFileTest, SerializedFormHasMagicAndSections) {
  const std::string text = SerializeProfile(SampleProfile());
  EXPECT_TRUE(StartsWith(text, "coign-profile v1\n"));
  EXPECT_NE(text.find("classification 0 "), std::string::npos);
  EXPECT_NE(text.find("App.Doc Reader"), std::string::npos);
  EXPECT_NE(text.find("compute 0 "), std::string::npos);
  EXPECT_NE(text.find("call 0 3 "), std::string::npos);
}

}  // namespace
}  // namespace coign
