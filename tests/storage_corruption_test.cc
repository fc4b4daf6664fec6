// Disk-corruption fuzz sweep over the persistence formats.
//
// The storage-integrity contract: a plan-cache (v4) or migration-journal
// (v2) snapshot damaged on disk must never crash the loader and must never
// be consumed as garbage. Both formats localize damage — a single flipped
// bit loses at most the records it touches (skipped and counted), a
// truncated tail is recovered as a torn append — and damage the loader
// cannot localize (a mangled header) comes back as a Status. The
// exhaustive sweeps run every single-bit flip and every truncation point;
// the seeded random sweep adds byte overwrites and multi-bit damage. Run
// under ASan/UBSan in CI, this is the "never crash, never lie" proof for
// the storage layer.
//
// The text codecs without a checksum (the profile log and the
// configuration record) get the same sweeps with a weaker contract: a
// damaged text parses or fails with InvalidArgumentError, and whatever
// parses re-serializes to a text that parses back to an equal value.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/fleet/plan_cache.h"
#include "src/online/migration_journal.h"
#include "src/profile/log_file.h"
#include "src/runtime/config_record.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"

namespace coign {
namespace {

AnalysisResult FuzzPlan(double seconds) {
  AnalysisResult plan;
  plan.predicted_comm_seconds = seconds;
  plan.total_comm_seconds = seconds * 3.0 + 0.1;
  plan.client_classifications = 2;
  plan.server_classifications = 1;
  plan.client_instances = 6;
  plan.server_instances = 1;
  plan.non_remotable_pairs = 1;
  plan.distribution.default_machine = kClientMachine;
  plan.distribution.placement[0] = kClientMachine;
  plan.distribution.placement[1] = kServerMachine;
  CutEdgeReport edge;
  edge.client_side = 1;
  edge.server_side = 2;
  edge.seconds = seconds / 7.0;
  plan.cut_edges.push_back(edge);
  return plan;
}

// A populated v4 snapshot with several records (placement and edge lines
// included), the base artifact every sweep damages.
std::string CacheSnapshotV4(size_t entries) {
  PlanCache cache(entries);
  for (size_t i = 0; i < entries; ++i) {
    cache.Insert(PlanCacheKey{10 + i, CohortKey{static_cast<int32_t>(i), 1}},
                 FuzzPlan(0.125 * (i + 1)));
  }
  return cache.Serialize();
}

// Record blocks (record lines + their crc line) of a v4 snapshot — the
// units a loader is allowed to keep or drop, never to alter.
std::vector<std::string> V4Blocks(const std::string& snapshot) {
  std::vector<std::string> blocks;
  std::string block;
  for (const std::string& line : SplitString(snapshot, '\n')) {
    if (line.empty() || line.compare(0, 11, "plan-cache ") == 0) {
      continue;
    }
    block += line;
    block += '\n';
    if (line.compare(0, 4, "crc ") == 0) {
      blocks.push_back(block);
      block.clear();
    }
  }
  return blocks;
}

// The "never lie" oracle: every record a damaged load kept must be byte
// identical to a record of the pristine snapshot.
void ExpectSurvivorsArePristine(PlanCache& reloaded, const std::string& pristine,
                                const std::string& context) {
  for (const std::string& block : V4Blocks(reloaded.Serialize())) {
    EXPECT_NE(pristine.find(block), std::string::npos)
        << context << ": loader invented record:\n" << block;
  }
}

// Seeded random damage: one to three rounds of a bit flip anywhere (the
// header included), a byte overwrite with an arbitrary value, or a
// truncation.
std::string RandomDamage(Rng& rng, std::string text) {
  const int rounds = static_cast<int>(rng.UniformInt(1, 3));
  for (int round = 0; round < rounds && !text.empty(); ++round) {
    switch (rng.UniformInt(0, 2)) {
      case 0: {
        const size_t bit = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(text.size()) * 8 - 1));
        text[bit / 8] = static_cast<char>(text[bit / 8] ^ (1u << (bit % 8)));
        break;
      }
      case 1: {
        text[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1))] =
            static_cast<char>(rng.UniformInt(0, 255));
        break;
      }
      default:
        text.resize(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(text.size()))));
    }
  }
  return text;
}

TEST(StorageCorruptionTest, CacheV4SurvivesEverySingleBitFlipInTheBody) {
  const std::string pristine = CacheSnapshotV4(4);
  const size_t body_start = pristine.find('\n') + 1;
  const size_t records = V4Blocks(pristine).size();
  ASSERT_EQ(records, 4u);

  for (size_t bit = body_start * 8; bit < pristine.size() * 8; ++bit) {
    std::string damaged = pristine;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    PlanCache cache(8);
    const Status status = cache.Load(damaged);
    ASSERT_TRUE(status.ok()) << "bit " << bit << ": " << status.ToString();
    const uint64_t skipped = cache.stats().corrupt_skipped;
    // One flipped bit damages at most two records (a destroyed newline or
    // crc line merges neighbors); everything else loads untouched.
    EXPECT_GE(cache.size() + 2, records) << "bit " << bit;
    EXPECT_LE(skipped, 2u) << "bit " << bit;
    EXPECT_GE(cache.size() + skipped + 1, records) << "bit " << bit;
    ExpectSurvivorsArePristine(cache, pristine, StrFormat("bit %zu", bit));
  }
}

TEST(StorageCorruptionTest, CacheV4SurvivesEveryTruncationPoint) {
  const std::string pristine = CacheSnapshotV4(4);
  const size_t body_start = pristine.find('\n') + 1;
  const size_t records = V4Blocks(pristine).size();

  for (size_t keep = body_start; keep <= pristine.size(); ++keep) {
    PlanCache cache(8);
    const Status status = cache.Load(pristine.substr(0, keep));
    ASSERT_TRUE(status.ok()) << "keep " << keep << ": " << status.ToString();
    // Truncation is tearing, not corruption: complete blocks load, the
    // cut-off tail is dropped without a corruption count.
    EXPECT_EQ(cache.stats().corrupt_skipped, 0u) << "keep " << keep;
    EXPECT_LE(cache.size(), records) << "keep " << keep;
    ExpectSurvivorsArePristine(cache, pristine, StrFormat("keep %zu", keep));
  }
}

TEST(StorageCorruptionTest, JournalV2SurvivesEverySingleBitFlipInTheBody) {
  MigrationJournal journal;
  for (InstanceId instance = 1; instance <= 4; ++instance) {
    journal.Append({MigrationPhase::kIntent, instance, kClientMachine,
                    kServerMachine, 64 * instance});
    journal.Append({MigrationPhase::kCommitted, instance, kClientMachine,
                    kServerMachine, 64 * instance});
  }
  const std::string pristine = journal.Serialize();
  const size_t body_start = pristine.find('\n') + 1;

  for (size_t bit = body_start * 8; bit < pristine.size() * 8; ++bit) {
    std::string damaged = pristine;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    Result<MigrationJournal> parsed = MigrationJournal::Parse(damaged);
    ASSERT_TRUE(parsed.ok()) << "bit " << bit << ": " << parsed.status().ToString();
    EXPECT_GE(parsed->size() + 2, journal.size()) << "bit " << bit;
    // Every surviving record is pristine: its serialized line must appear
    // in the undamaged journal.
    const std::string reserialized = parsed->Serialize();
    for (const std::string& line : SplitString(reserialized, '\n')) {
      if (!line.empty() && line.compare(0, 4, "rec ") == 0) {
        EXPECT_NE(pristine.find(line + "\n"), std::string::npos)
            << "bit " << bit << ": loader invented record: " << line;
      }
    }
  }
}

TEST(StorageCorruptionTest, JournalV2SurvivesEveryTruncationPoint) {
  MigrationJournal journal;
  for (InstanceId instance = 1; instance <= 3; ++instance) {
    journal.Append({MigrationPhase::kPrepared, instance, kClientMachine,
                    kServerMachine, 128});
  }
  const std::string text = journal.Serialize();
  const size_t body_start = text.find('\n') + 1;
  for (size_t keep = body_start; keep <= text.size(); ++keep) {
    Result<MigrationJournal> parsed = MigrationJournal::Parse(text.substr(0, keep));
    ASSERT_TRUE(parsed.ok())
        << "keep " << keep << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->corrupt_skipped(), 0u) << "keep " << keep;
    EXPECT_LE(parsed->size(), journal.size()) << "keep " << keep;
    if (keep < text.size()) {
      EXPECT_TRUE(parsed->recovered_torn_tail() || parsed->size() < journal.size() ||
                  keep + 1 == text.size())
          << "keep " << keep;
    }
  }
}

// Damage anywhere — the header included — may fail a load outright, but
// it must fail with a Status, never crash, whatever bytes the disk serves.
// Seeded random damage: bit flips, byte overwrites, truncations, and
// combinations.
TEST(StorageCorruptionTest, RandomDamageNeverCrashesALoader) {
  const std::string cache_snapshot = CacheSnapshotV4(4);

  MigrationJournal journal;
  for (InstanceId instance = 1; instance <= 4; ++instance) {
    journal.Append({MigrationPhase::kIntent, instance, kClientMachine,
                    kServerMachine, 256});
    journal.Append({MigrationPhase::kRolledBack, instance, kClientMachine,
                    kServerMachine, 256});
  }
  const std::string journal_snapshot = journal.Serialize();

  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    PlanCache cache(8);
    if (cache.Load(RandomDamage(rng, cache_snapshot)).ok()) {
      (void)cache.Serialize();  // A surviving cache must still function.
    }
    Result<MigrationJournal> parsed = MigrationJournal::Parse(RandomDamage(rng, journal_snapshot));
    if (parsed.ok()) {
      (void)parsed->InFlight();
      (void)parsed->Serialize();
    }
  }
}

// A small profile log with every record kind: two classifications (one
// name with a space), alloc and compute lines, and two call keys.
std::string SmallProfileLog() {
  IccProfile profile;
  ClassificationInfo reader;
  reader.id = 0;
  reader.clsid = Guid::FromName("clsid:Reader");
  reader.class_name = "App.Doc Reader";
  reader.api_usage = 4;
  reader.instance_count = 2;
  profile.RecordClassification(reader);
  profile.RecordAllocation(0, 640);
  profile.RecordCompute(0, 0.125);
  ClassificationInfo ui;
  ui.id = 13;
  ui.clsid = Guid::FromName("clsid:Ui");
  ui.class_name = "App.Ui";
  ui.instance_count = 1;
  profile.RecordClassification(ui);
  profile.RecordCompute(13, 3.75e-5);
  CallKey key{0, 13, Guid::FromName("iid:IView"), 2};
  profile.RecordCall(key, 1000, 64, true);
  profile.RecordCall(key, 3, 100000, false);
  profile.RecordCall(CallKey{kNoClassification, 0, Guid::FromName("iid:IDoc"), 0}, 0, 12, true);
  return SerializeProfile(profile);
}

// A configuration record with every section: header lines, `place`
// lines, `desc` lines with tokens, and the small profile log as payload.
std::string SmallConfigRecord() {
  ConfigurationRecord record;
  record.mode = RuntimeMode::kDistributed;
  record.classifier_depth = 4;
  record.distribution.default_machine = kServerMachine;
  record.distribution.placement[0] = kClientMachine;
  record.distribution.placement[13] = kServerMachine;
  Descriptor descriptor;
  descriptor.clsid = Guid::FromName("clsid:Reader");
  descriptor.tokens = {{1, 22, 333}, {4, 5, 6}};
  record.classifier_table = {descriptor, Descriptor{}};
  record.profile_text = SmallProfileLog();
  return record.Serialize();
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines = SplitString(text, '\n');
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The text-codec oracle for one (possibly damaged) profile log: the parse
// fails with InvalidArgumentError, or its re-serialization parses to a
// profile with the same records and the same totals. Call lines follow
// hash-map order, so records are compared as sorted lines.
void CheckProfileCodec(const std::string& text, const std::string& context) {
  const Result<IccProfile> parsed = ParseProfile(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << context;
    return;
  }
  const std::string written = SerializeProfile(*parsed);
  const Result<IccProfile> again = ParseProfile(written);
  ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
  EXPECT_EQ(SortedLines(SerializeProfile(*again)), SortedLines(written)) << context;
  EXPECT_EQ(again->total_calls(), parsed->total_calls()) << context;
  EXPECT_EQ(again->total_bytes(), parsed->total_bytes()) << context;
  EXPECT_EQ(again->total_compute_seconds(), parsed->total_compute_seconds()) << context;
}

// The same oracle for a configuration record, which carries every field
// it parses, so the round trip must give an equal record.
void CheckConfigCodec(const std::string& text, const std::string& context) {
  const Result<ConfigurationRecord> parsed = ConfigurationRecord::Parse(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << context;
    return;
  }
  const Result<ConfigurationRecord> again = ConfigurationRecord::Parse(parsed->Serialize());
  ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
  EXPECT_EQ(again->mode, parsed->mode) << context;
  EXPECT_EQ(again->classifier_kind, parsed->classifier_kind) << context;
  EXPECT_EQ(again->classifier_depth, parsed->classifier_depth) << context;
  EXPECT_EQ(again->distribution.default_machine, parsed->distribution.default_machine) << context;
  EXPECT_EQ(again->distribution.placement, parsed->distribution.placement) << context;
  EXPECT_EQ(again->classifier_table, parsed->classifier_table) << context;
  EXPECT_EQ(again->profile_text, parsed->profile_text) << context;
  CheckProfileCodec(parsed->profile_text, context + " payload");
}

TEST(StorageCorruptionTest, ProfileLogSurvivesEveryBitFlipAndTruncation) {
  const std::string pristine = SmallProfileLog();
  ASSERT_TRUE(ParseProfile(pristine).ok());
  for (size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    std::string damaged = pristine;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    CheckProfileCodec(damaged, StrFormat("bit %zu", bit));
  }
  for (size_t keep = 0; keep <= pristine.size(); ++keep) {
    CheckProfileCodec(pristine.substr(0, keep), StrFormat("keep %zu", keep));
  }
}

TEST(StorageCorruptionTest, ConfigRecordSurvivesEveryBitFlipAndTruncation) {
  const std::string pristine = SmallConfigRecord();
  ASSERT_TRUE(ConfigurationRecord::Parse(pristine).ok());
  for (size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    std::string damaged = pristine;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1u << (bit % 8)));
    CheckConfigCodec(damaged, StrFormat("bit %zu", bit));
  }
  for (size_t keep = 0; keep <= pristine.size(); ++keep) {
    CheckConfigCodec(pristine.substr(0, keep), StrFormat("keep %zu", keep));
  }
}

TEST(StorageCorruptionTest, RandomDamageKeepsTheTextCodecsConsistent) {
  const std::string profile_log = SmallProfileLog();
  const std::string config_record = SmallConfigRecord();
  Rng rng(1999);
  for (int trial = 0; trial < 2000; ++trial) {
    CheckProfileCodec(RandomDamage(rng, profile_log), StrFormat("profile trial %d", trial));
    CheckConfigCodec(RandomDamage(rng, config_record), StrFormat("config trial %d", trial));
  }
}

}  // namespace
}  // namespace coign
