#include "src/runtime/config_record.h"

#include <utility>
#include <vector>

#include "src/support/str_util.h"

namespace coign {

const char* RuntimeModeName(RuntimeMode mode) {
  switch (mode) {
    case RuntimeMode::kProfiling:
      return "profiling";
    case RuntimeMode::kDistributed:
      return "distributed";
  }
  return "?";
}

namespace {

constexpr char kMagic[] = "coign-config v1";

Result<ClassifierKind> ClassifierKindFromIndex(int index) {
  const auto& kinds = AllClassifierKinds();
  if (index < 0 || static_cast<size_t>(index) >= kinds.size()) {
    return InvalidArgumentError("bad classifier kind index");
  }
  return kinds[static_cast<size_t>(index)];
}

Status Malformed(std::string_view line) {
  return InvalidArgumentError("malformed config line: " + std::string(line));
}

// Machine ids are dense and start at kClientMachine.
bool ReadMachine(FieldReader& fields, MachineId* machine) {
  return fields.Number(machine) && *machine >= 0;
}

int ClassifierKindIndex(ClassifierKind kind) {
  const auto& kinds = AllClassifierKinds();
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == kind) {
      return static_cast<int>(i);
    }
  }
  return 0;
}

}  // namespace

std::string ConfigurationRecord::Serialize() const {
  std::string out;
  out.reserve(96 + 16 * distribution.placement.size() + 64 * classifier_table.size() +
              profile_text.size());
  StrAppend(&out, kMagic, "\nmode ", static_cast<int>(mode), "\nclassifier ",
            ClassifierKindIndex(classifier_kind), ' ', classifier_depth, "\ndefault-machine ",
            distribution.default_machine, '\n');
  for (const auto& [id, machine] : distribution.placement) {
    StrAppend(&out, "place ", id, ' ', machine, '\n');
  }
  for (const Descriptor& descriptor : classifier_table) {
    out += "desc ";
    descriptor.clsid.AppendTo(&out);
    StrAppend(&out, ' ', descriptor.tokens.size());
    for (const DescriptorToken& token : descriptor.tokens) {
      StrAppend(&out, ' ', token.tag, ':', token.a, ':', token.b);
    }
    out += '\n';
  }
  StrAppend(&out, "profile ", profile_text.size(), '\n');
  out += profile_text;
  return out;
}

Result<ConfigurationRecord> ConfigurationRecord::Parse(std::string_view text) {
  FieldReader fields(text);
  if (!fields.NextLine() || fields.line() != kMagic) {
    return InvalidArgumentError("missing configuration record magic");
  }
  ConfigurationRecord record;
  // `place` lines are collected and sorted once at the end, so an
  // untrusted record in any order parses in O(n log n).
  std::vector<FlatPlacement::value_type> placed;
  const auto finish = [&record, &placed]() {
    record.distribution.placement = FlatPlacement::FromEntries(std::move(placed));
    return std::move(record);
  };
  while (fields.NextLine()) {
    const std::string_view line = fields.line();
    const std::string_view keyword = fields.Field();
    if (keyword == "mode") {
      int mode = 0;
      if (!fields.Number(&mode) || !fields.LineDone() || (mode != 0 && mode != 1)) {
        return Malformed(line);
      }
      record.mode = mode == 0 ? RuntimeMode::kProfiling : RuntimeMode::kDistributed;
    } else if (keyword == "classifier") {
      int kind_index = 0;
      if (!fields.Number(&kind_index) || !fields.Number(&record.classifier_depth) ||
          !fields.LineDone()) {
        return Malformed(line);
      }
      Result<ClassifierKind> kind = ClassifierKindFromIndex(kind_index);
      if (!kind.ok()) {
        return kind.status();
      }
      record.classifier_kind = *kind;
    } else if (keyword == "default-machine") {
      if (!ReadMachine(fields, &record.distribution.default_machine) || !fields.LineDone()) {
        return Malformed(line);
      }
    } else if (keyword == "place") {
      ClassificationId id = kNoClassification;
      MachineId machine = kClientMachine;
      if (!fields.Number(&id) || !ReadMachine(fields, &machine) || !fields.LineDone()) {
        return Malformed(line);
      }
      placed.emplace_back(id, machine);
    } else if (keyword == "desc") {
      Descriptor descriptor;
      Result<Guid> clsid = Guid::Parse(fields.Field());
      if (!clsid.ok()) {
        return clsid.status();
      }
      descriptor.clsid = *clsid;
      size_t token_count = 0;
      if (!fields.Number(&token_count)) {
        return Malformed(line);
      }
      for (size_t i = 0; i < token_count; ++i) {
        const std::string_view token_text = fields.Field();
        DescriptorToken token;
        if (!ParseColonTriple(token_text, &token.tag, &token.a, &token.b)) {
          return InvalidArgumentError("malformed descriptor token: " + std::string(token_text));
        }
        descriptor.tokens.push_back(token);
      }
      if (!fields.LineDone()) {
        return Malformed(line);
      }
      record.classifier_table.push_back(std::move(descriptor));
    } else if (keyword == "profile") {
      size_t length = 0;
      if (!fields.Number(&length) || !fields.LineDone()) {
        return Malformed(line);
      }
      // The payload is the next `length` bytes after this line; anything
      // after it is ignored.
      const std::string_view payload = fields.unread();
      if (payload.size() < length) {
        return InvalidArgumentError("truncated profile payload in config record");
      }
      record.profile_text.assign(payload.data(), length);
      return finish();
    } else if (!keyword.empty()) {
      return InvalidArgumentError("unknown config keyword: " + std::string(keyword));
    }
  }
  return finish();
}

}  // namespace coign
