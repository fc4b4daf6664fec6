#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/runtime/binary_rewriter.h"
#include "src/runtime/config_record.h"
#include "src/runtime/static_analysis.h"

namespace coign {
namespace {

ApplicationImage SampleImage() {
  ApplicationImage image;
  image.name = "app.exe";
  image.binaries = {"app.exe", "logic.dll"};
  image.import_table = {"ole32.dll", "user32.dll"};
  return image;
}

TEST(ConfigRecordTest, SerializeParseRoundTrip) {
  ConfigurationRecord record;
  record.mode = RuntimeMode::kDistributed;
  record.classifier_kind = ClassifierKind::kEntryPointCalledBy;
  record.classifier_depth = 3;
  record.distribution.placement[4] = kServerMachine;
  record.distribution.placement[9] = kClientMachine;
  record.distribution.default_machine = kClientMachine;
  record.profile_text = "coign-profile v1\nmulti\nline payload";

  Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(record.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->mode, RuntimeMode::kDistributed);
  EXPECT_EQ(parsed->classifier_kind, ClassifierKind::kEntryPointCalledBy);
  EXPECT_EQ(parsed->classifier_depth, 3);
  EXPECT_EQ(parsed->distribution.placement.at(4), kServerMachine);
  EXPECT_EQ(parsed->distribution.placement.at(9), kClientMachine);
  EXPECT_EQ(parsed->profile_text, record.profile_text);
}

TEST(ConfigRecordTest, DefaultsMatchPaper) {
  ConfigurationRecord record;
  EXPECT_EQ(record.mode, RuntimeMode::kProfiling);
  // "Only one, the internal-function called-by classifier, is typically
  // used" with a complete stack walk.
  EXPECT_EQ(record.classifier_kind, ClassifierKind::kInternalFunctionCalledBy);
  EXPECT_EQ(record.classifier_depth, kCompleteStackWalk);
}

TEST(ConfigRecordTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ConfigurationRecord::Parse("").ok());
  EXPECT_FALSE(ConfigurationRecord::Parse("wrong magic\n").ok());
  EXPECT_FALSE(ConfigurationRecord::Parse("coign-config v1\nunknown x\n").ok());
}

TEST(ConfigRecordTest, ParseRejectsMalformedLines) {
  // Each line is missing a field, carries a non-number, an out-of-range
  // mode, id or machine, a signed unsigned field, a malformed descriptor
  // token or trailing junk; none may parse to a default.
  for (const char* line :
       {"mode x", "mode 2", "mode -1", "mode 1 extra", "mode", "place 7", "place abc 1",
        "place 7 1 junk", "default-machine z", "default-machine 1 2", "classifier 0",
        "classifier 0 3 x", "profile x", "profile 0 0",
        "desc {0000000000000000-0000000000000000} 1 1:2:3 junk",
        // Negative and out-of-range ids and machines.
        "place -3 1", "place +3 1", "place 3 -7", "place 4294967296 1", "place 3 2147483648",
        "default-machine -2", "profile -1",
        // Descriptor tokens: trailing characters, signs, missing parts.
        "desc {0000000000000000-0000000000000000} 1 1:2:3x",
        "desc {0000000000000000-0000000000000000} 1 1:-2:3",
        "desc {0000000000000000-0000000000000000} 1 -1:2:3",
        "desc {0000000000000000-0000000000000000} 1 1:2",
        "desc {0000000000000000-0000000000000000} 2 1:2:3",
        "desc {0000000000000000-0000000000000000} -1",
        "desc {0000000000000000-0000000000000000}"}) {
    const Result<ConfigurationRecord> parsed =
        ConfigurationRecord::Parse(std::string("coign-config v1\n") + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // The same keywords, well formed, still parse.
  const Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(
      "coign-config v1\nmode 1\nclassifier 0 3\ndefault-machine 1\nplace 7 0\n"
      "desc {0000000000000000-0000000000000000} 1 1:2:3\nprofile 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->mode, RuntimeMode::kDistributed);
  EXPECT_EQ(parsed->distribution.default_machine, 1);
  EXPECT_EQ(parsed->distribution.placement.at(7), 0);
  ASSERT_EQ(parsed->classifier_table.size(), 1u);
  EXPECT_EQ(parsed->classifier_table[0].tokens.size(), 1u);
}

// The serialized form is pinned: header lines, `place` lines, `desc`
// tokens and the length-prefixed profile payload, which is copied raw
// (newlines included) and may be followed by bytes the parse ignores.
TEST(ConfigRecordTest, SerializedFormIsPinned) {
  ConfigurationRecord record;
  record.mode = RuntimeMode::kDistributed;
  record.classifier_kind = AllClassifierKinds()[2];
  record.classifier_depth = kCompleteStackWalk;
  record.distribution.default_machine = kServerMachine;
  // Written out of order; the record lists them by ascending id.
  record.distribution.placement[4294967294u] = 2;
  record.distribution.placement[31] = kServerMachine;
  record.distribution.placement[0] = kClientMachine;
  record.distribution.placement[7] = kServerMachine;
  Descriptor descriptor;
  descriptor.clsid = Guid{0xabcdef, 1};
  descriptor.tokens = {{18446744073709551615ull, 0, 7}, {1, 2, 3}};
  record.classifier_table = {descriptor, Descriptor{}};
  record.profile_text = "coign-profile v1\nx\n";
  const std::string text = record.Serialize();
  EXPECT_EQ(text,
            "coign-config v1\nmode 1\nclassifier 2 -1\ndefault-machine 1\n"
            "place 0 0\nplace 7 1\nplace 31 1\nplace 4294967294 2\n"
            "desc {0000000000abcdef-0000000000000001} 2 18446744073709551615:0:7 1:2:3\n"
            "desc {0000000000000000-0000000000000000} 0\n"
            "profile 19\ncoign-profile v1\nx\n");
  const Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(text + "ignored tail");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), text);
  EXPECT_EQ(parsed->distribution.placement, record.distribution.placement);
  EXPECT_EQ(parsed->classifier_table, record.classifier_table);
  EXPECT_EQ(parsed->profile_text, record.profile_text);
  EXPECT_EQ(ConfigurationRecord::Parse(text.substr(0, text.size() - 1)).status().code(),
            StatusCode::kInvalidArgument);
}

// `place` lines in any order, ids repeated: the parse keeps the last line
// for each id, the same map that applying the lines in file order gives.
TEST(ConfigRecordTest, ParseAcceptsPlaceLinesInAnyOrder) {
  std::string text = "coign-config v1\nmode 1\n";
  Distribution expected;
  const std::pair<ClassificationId, MachineId> lines[] = {
      {40, 1}, {12, 0}, {40, 2}, {3, 1}, {12, 1}, {0, 0}, {3, 1}};
  for (const auto& [id, machine] : lines) {
    text += "place " + std::to_string(id) + " " + std::to_string(machine) + "\n";
    expected.placement[id] = machine;
  }
  // A long reversed run as well, which a per-line sorted insert would
  // make quadratic.
  for (ClassificationId id = 5000; id > 100; --id) {
    text += "place " + std::to_string(id) + " " + std::to_string(id % 3) + "\n";
    expected.placement[id] = static_cast<MachineId>(id % 3);
  }
  const Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->distribution.placement, expected.placement);
  EXPECT_EQ(parsed->distribution.placement.at(40), 2);
  EXPECT_EQ(parsed->distribution.placement.at(12), 1);
  EXPECT_EQ(parsed->distribution.size(), 4u + 4900u);
  // Re-serialized, each id appears once, ascending.
  const std::string again = parsed->Serialize();
  EXPECT_NE(again.find("place 0 0\nplace 3 1\nplace 12 1\nplace 40 2\nplace 101 2\n"),
            std::string::npos);
}

TEST(BinaryRewriterTest, InstrumentInsertsRuntimeFirstAndConfig) {
  BinaryRewriter rewriter;
  const ApplicationImage original = SampleImage();
  EXPECT_FALSE(original.IsInstrumented());

  Result<ApplicationImage> instrumented = rewriter.Instrument(original, ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());
  EXPECT_TRUE(instrumented->IsInstrumented());
  // "It inserts an entry into the first slot of the application's DLL
  // import table" — the runtime loads before everything else.
  ASSERT_EQ(instrumented->import_table.size(), 3u);
  EXPECT_EQ(instrumented->import_table[0], kCoignRuntimeDll);
  EXPECT_EQ(instrumented->import_table[1], "ole32.dll");
  ASSERT_TRUE(instrumented->config_segment.has_value());
  EXPECT_TRUE(instrumented->ReadConfig().ok());
  // The original is untouched.
  EXPECT_EQ(original.import_table.size(), 2u);
}

TEST(BinaryRewriterTest, DoubleInstrumentationRefused) {
  BinaryRewriter rewriter;
  Result<ApplicationImage> once = rewriter.Instrument(SampleImage(), ConfigurationRecord());
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(rewriter.Instrument(*once, ConfigurationRecord()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BinaryRewriterTest, WriteDistributionSwitchesToLightweightRuntime) {
  BinaryRewriter rewriter;
  Result<ApplicationImage> instrumented =
      rewriter.Instrument(SampleImage(), ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());

  Distribution distribution;
  distribution.placement[2] = kServerMachine;
  Result<ApplicationImage> distributed =
      rewriter.WriteDistribution(*instrumented, distribution, "profile-payload");
  ASSERT_TRUE(distributed.ok());
  Result<ConfigurationRecord> config = distributed->ReadConfig();
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->mode, RuntimeMode::kDistributed);
  EXPECT_EQ(config->distribution.placement.at(2), kServerMachine);
  EXPECT_EQ(config->profile_text, "profile-payload");

  // Not possible on an uninstrumented image.
  EXPECT_EQ(rewriter.WriteDistribution(SampleImage(), distribution, "").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BinaryRewriterTest, StripRestoresOriginal) {
  BinaryRewriter rewriter;
  Result<ApplicationImage> instrumented =
      rewriter.Instrument(SampleImage(), ConfigurationRecord());
  ASSERT_TRUE(instrumented.ok());
  const ApplicationImage stripped = rewriter.Strip(*instrumented);
  EXPECT_FALSE(stripped.IsInstrumented());
  EXPECT_EQ(stripped.import_table, SampleImage().import_table);
  EXPECT_FALSE(stripped.config_segment.has_value());
}

TEST(StaticAnalysisTest, ClassifiesKnownApis) {
  EXPECT_EQ(ClassifyApiName("CreateWindowExW"), kApiGui);
  EXPECT_EQ(ClassifyApiName("BitBlt"), kApiGui);
  EXPECT_EQ(ClassifyApiName("ReadFile"), kApiStorage);
  EXPECT_EQ(ClassifyApiName("StgOpenStorage"), kApiStorage);
  EXPECT_EQ(ClassifyApiName("SQLConnect"), kApiOdbc);
  EXPECT_EQ(ClassifyApiName("GetTickCount"), kApiNone);
}

TEST(StaticAnalysisTest, AnalyzeImportsUnionsFlags) {
  EXPECT_EQ(AnalyzeImports({"GetTickCount", "HeapAlloc"}), kApiNone);
  EXPECT_EQ(AnalyzeImports({"CreateWindowExW", "ReadFile"}), kApiGui | kApiStorage);
  EXPECT_EQ(AnalyzeImports({}), kApiNone);
}

TEST(StaticAnalysisTest, UsageStringsReadable) {
  EXPECT_EQ(ApiUsageString(kApiNone), "none");
  EXPECT_EQ(ApiUsageString(kApiGui), "gui");
  EXPECT_EQ(ApiUsageString(kApiGui | kApiStorage | kApiOdbc), "gui|storage|odbc");
}

}  // namespace
}  // namespace coign
