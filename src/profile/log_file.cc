#include "src/profile/log_file.h"

#include <fstream>

#include "src/support/str_util.h"

namespace coign {
namespace {

constexpr char kMagic[] = "coign-profile v1";

void AppendHistogramFields(std::string* out, const ExponentialHistogram& h) {
  h.ForEachNonEmptyBucket([out](int bucket, uint64_t count, uint64_t bytes) {
    StrAppend(out, ' ', bucket, ':', count, ':', bytes);
  });
}

// Reads "bucket:count:bytes" fields into `h` up to the ";" that ends them.
Status ReadHistogramFields(FieldReader& fields, ExponentialHistogram* h) {
  for (std::string_view field = fields.Field(); !field.empty(); field = fields.Field()) {
    if (field == ";") {
      return Status::Ok();
    }
    int bucket = 0;
    uint64_t count = 0;
    uint64_t bytes = 0;
    // A zero count is a bucket the writer never emits (its bytes would
    // still reach the totals), so the round trip could not return it.
    if (!ParseColonTriple(field, &bucket, &count, &bytes) || bucket < 0 ||
        bucket > ExponentialHistogram::kMaxBucket || count == 0) {
      return InvalidArgumentError("malformed histogram field: " + std::string(field));
    }
    h->AddBucket(bucket, count, bytes);
  }
  return InvalidArgumentError("unterminated histogram fields");
}

// True when the writer's ten-digit text for `seconds` reads back as
// `seconds`; a value with more digits would change on the round trip.
bool WriterReproduces(double seconds, std::string* scratch) {
  scratch->clear();
  AppendScientific9(scratch, seconds);
  double back = 0.0;
  return ParseNumber(*scratch, &back) && back == seconds;
}

Status Malformed(std::string_view line) {
  return InvalidArgumentError("malformed profile line: " + std::string(line));
}

}  // namespace

std::string SerializeProfile(const IccProfile& profile) {
  std::string out;
  out.reserve(96 * profile.classifications().size() + 96 * profile.calls().size());
  StrAppend(&out, kMagic, '\n');
  for (ClassificationId id : profile.SortedClassificationIds()) {
    const ClassificationInfo* info = profile.FindClassification(id);
    StrAppend(&out, "classification ", info->id, ' ');
    info->clsid.AppendTo(&out);
    StrAppend(&out, ' ', info->api_usage, ' ', info->instance_count, ' ', info->class_name, '\n');
    if (info->allocation_bytes > 0) {
      StrAppend(&out, "alloc ", id, ' ', info->allocation_bytes, '\n');
    }
    const double compute = profile.ComputeSecondsOf(id);
    if (compute > 0.0) {
      StrAppend(&out, "compute ", id, ' ');
      AppendScientific9(&out, compute);
      out += '\n';
    }
  }
  for (const auto& [key, summary] : profile.calls()) {
    StrAppend(&out, "call ", key.src, ' ', key.dst, ' ');
    key.iid.AppendTo(&out);
    StrAppend(&out, ' ', key.method, ' ', summary.non_remotable_calls, " req");
    AppendHistogramFields(&out, summary.requests);
    out += " ; rep";
    AppendHistogramFields(&out, summary.replies);
    out += " ;\n";
  }
  return out;
}

Result<IccProfile> ParseProfile(std::string_view text) {
  IccProfile profile;
  FieldReader fields(text);
  if (!fields.NextLine() || fields.line() != kMagic) {
    return InvalidArgumentError("missing profile magic header");
  }
  bool any_compute = false;
  ClassificationId last_compute_id = 0;
  std::string scratch;
  while (fields.NextLine()) {
    const std::string_view line = fields.line();
    if (line.empty()) {
      continue;
    }
    const std::string_view keyword = fields.Field();
    if (keyword == "call") {
      CallKey key;
      uint64_t non_remotable = 0;
      if (!fields.Number(&key.src) || !fields.Number(&key.dst)) {
        return Malformed(line);
      }
      const std::string_view iid_text = fields.Field();
      if (!fields.Number(&key.method) || !fields.Number(&non_remotable)) {
        return Malformed(line);
      }
      Result<Guid> iid = Guid::Parse(iid_text);
      if (!iid.ok()) {
        return iid.status();
      }
      key.iid = *iid;
      if (fields.Field() != "req") {
        return InvalidArgumentError("expected 'req' marker");
      }
      // The histograms build straight on the profile's summary; a failed
      // line fails the whole parse, so a half-filled summary never escapes.
      COIGN_RETURN_IF_ERROR(profile.FillCallSummary(key, [&](CallSummary& summary) {
        COIGN_RETURN_IF_ERROR(ReadHistogramFields(fields, &summary.requests));
        if (fields.Field() != "rep") {
          return InvalidArgumentError("expected 'rep' marker");
        }
        COIGN_RETURN_IF_ERROR(ReadHistogramFields(fields, &summary.replies));
        if (!fields.LineDone()) {
          return Malformed(line);
        }
        summary.non_remotable_calls += non_remotable;
        return Status::Ok();
      }));
    } else if (keyword == "classification") {
      ClassificationInfo info;
      if (!fields.Number(&info.id)) {
        return Malformed(line);
      }
      const std::string_view clsid_text = fields.Field();
      if (!fields.Number(&info.api_usage) || !fields.Number(&info.instance_count)) {
        return Malformed(line);
      }
      // The class name is the rest of the line after one separating space;
      // it may hold spaces of its own or be empty.
      std::string_view name = fields.LineTail();
      if (!name.empty() && name.front() == ' ') {
        name.remove_prefix(1);
      }
      info.class_name = name;
      Result<Guid> clsid = Guid::Parse(clsid_text);
      if (!clsid.ok()) {
        return clsid.status();
      }
      info.clsid = *clsid;
      profile.RecordClassification(info);
    } else if (keyword == "alloc") {
      ClassificationId id = kNoClassification;
      uint64_t bytes = 0;
      if (!fields.Number(&id) || !fields.Number(&bytes) || !fields.LineDone()) {
        return Malformed(line);
      }
      profile.RecordAllocation(id, bytes);
    } else if (keyword == "compute") {
      ClassificationId id = kNoClassification;
      double seconds = 0.0;
      // The writer emits at most one compute line per id, by ascending id
      // after that id's classification line, with a positive time at ten
      // significant digits; accept nothing it could not write back. The
      // ascending order also makes the total sum in the writer's order.
      if (!fields.Number(&id) || !fields.Number(&seconds) || !fields.LineDone() ||
          !(seconds > 0.0) || profile.FindClassification(id) == nullptr ||
          (any_compute && id <= last_compute_id) || !WriterReproduces(seconds, &scratch)) {
        return Malformed(line);
      }
      any_compute = true;
      last_compute_id = id;
      profile.RecordCompute(id, seconds);
    } else {
      return InvalidArgumentError("unknown profile keyword: " + std::string(keyword));
    }
  }
  return profile;
}

Status WriteProfileFile(const IccProfile& profile, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError("cannot open profile file for writing: " + path);
  }
  out << SerializeProfile(profile);
  if (!out.good()) {
    return InternalError("short write to profile file: " + path);
  }
  return Status::Ok();
}

Result<IccProfile> ReadProfileFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open profile file: " + path);
  }
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return ParseProfile(text);
}

Result<IccProfile> MergeProfileFiles(const std::vector<std::string>& paths) {
  IccProfile merged;
  for (const std::string& path : paths) {
    Result<IccProfile> one = ReadProfileFile(path);
    if (!one.ok()) {
      return one.status();
    }
    merged.Merge(*one);
  }
  return merged;
}

}  // namespace coign
