#include "src/profile/log_file.h"

#include <cstdio>

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
  // Missing fields, non-numbers, trailing junk and unterminated histograms.
  for (const std::string& line :
       {std::string("compute 5 abc"), std::string("compute 5"), std::string("compute 5 1.0 x"),
        std::string("alloc x"), std::string("alloc 1"), std::string("alloc 1 2 3"),
        "classification x " + guid + " 0 1 Name", "classification 1 " + guid + " 0",
        "call 0 1 " + guid + " 2", "call 0 1 " + guid + " 2 0 req 1:1:8 ; rep ; junk",
        "call 0 1 " + guid + " 2 0 req 1:1:8 ; rep 1:1:8"}) {
    const Result<IccProfile> parsed = ParseProfile("coign-profile v1\n" + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // The same keywords, well formed, still parse.
  const Result<IccProfile> parsed = ParseProfile(
      "coign-profile v1\nclassification 1 " + guid + " 0 1 Two Words\nalloc 1 64\n" +
      "compute 1 2.5e-01\ncall 0 1 " + guid + " 2 0 req 1:1:8 ; rep ;\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->FindClassification(1)->class_name, "Two Words");
  EXPECT_EQ(parsed->total_calls(), 1u);
  EXPECT_EQ(parsed->total_compute_seconds(), 0.25);
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
