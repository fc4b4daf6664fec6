#include "src/runtime/config_record.h"

#include <cstdio>
#include <sstream>

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

Status Malformed(const std::string& line) {
  return InvalidArgumentError("malformed config line: " + line);
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
  std::string out = kMagic;
  out += StrFormat("\nmode %d\nclassifier %d %d\ndefault-machine %d\n",
                   static_cast<int>(mode), ClassifierKindIndex(classifier_kind),
                   classifier_depth, distribution.default_machine);
  for (const auto& [id, machine] : distribution.placement) {
    out += StrFormat("place %u %d\n", id, machine);
  }
  for (const Descriptor& descriptor : classifier_table) {
    out += StrFormat("desc %s %zu", descriptor.clsid.ToString().c_str(),
                     descriptor.tokens.size());
    for (const DescriptorToken& token : descriptor.tokens) {
      out += StrFormat(" %llu:%llu:%llu", static_cast<unsigned long long>(token.tag),
                       static_cast<unsigned long long>(token.a),
                       static_cast<unsigned long long>(token.b));
    }
    out += "\n";
  }
  out += StrFormat("profile %zu\n", profile_text.size());
  out += profile_text;
  return out;
}

Result<ConfigurationRecord> ConfigurationRecord::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return InvalidArgumentError("missing configuration record magic");
  }
  ConfigurationRecord record;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "mode") {
      int mode = 0;
      fields >> mode;
      if (!FieldsConsumed(fields) || (mode != 0 && mode != 1)) {
        return Malformed(line);
      }
      record.mode = mode == 0 ? RuntimeMode::kProfiling : RuntimeMode::kDistributed;
    } else if (keyword == "classifier") {
      int kind_index = 0;
      fields >> kind_index >> record.classifier_depth;
      if (!FieldsConsumed(fields)) {
        return Malformed(line);
      }
      Result<ClassifierKind> kind = ClassifierKindFromIndex(kind_index);
      if (!kind.ok()) {
        return kind.status();
      }
      record.classifier_kind = *kind;
    } else if (keyword == "default-machine") {
      fields >> record.distribution.default_machine;
      if (!FieldsConsumed(fields)) {
        return Malformed(line);
      }
    } else if (keyword == "place") {
      ClassificationId id = kNoClassification;
      MachineId machine = kClientMachine;
      fields >> id >> machine;
      if (!FieldsConsumed(fields)) {
        return Malformed(line);
      }
      record.distribution.placement[id] = machine;
    } else if (keyword == "desc") {
      Descriptor descriptor;
      std::string guid_text;
      size_t token_count = 0;
      fields >> guid_text >> token_count;
      if (guid_text != "{0000000000000000-0000000000000000}") {
        Result<Guid> clsid = Guid::Parse(guid_text);
        if (!clsid.ok()) {
          return clsid.status();
        }
        descriptor.clsid = *clsid;
      }
      for (size_t i = 0; i < token_count; ++i) {
        std::string token_text;
        fields >> token_text;
        DescriptorToken token;
        unsigned long long tag = 0, a = 0, b = 0;
        if (std::sscanf(token_text.c_str(), "%llu:%llu:%llu", &tag, &a, &b) != 3) {
          return InvalidArgumentError("malformed descriptor token: " + token_text);
        }
        token.tag = tag;
        token.a = a;
        token.b = b;
        descriptor.tokens.push_back(token);
      }
      if (!FieldsConsumed(fields)) {
        return Malformed(line);
      }
      record.classifier_table.push_back(std::move(descriptor));
    } else if (keyword == "profile") {
      size_t length = 0;
      fields >> length;
      if (!FieldsConsumed(fields)) {
        return Malformed(line);
      }
      std::string rest((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      if (rest.size() < length) {
        return InvalidArgumentError("truncated profile payload in config record");
      }
      record.profile_text = rest.substr(0, length);
      return record;
    } else if (!keyword.empty()) {
      return InvalidArgumentError("unknown config keyword: " + keyword);
    }
  }
  return record;
}

}  // namespace coign
