#include "src/graph/distribution.h"

#include "src/support/str_util.h"

namespace coign {

FlatPlacement FlatPlacement::FromEntries(std::vector<value_type> entries) {
  // Stable, so each run of one id keeps input order; its last pair wins.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const value_type& a, const value_type& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i + 1 < entries.size() && entries[i + 1].first == entries[i].first) {
      continue;
    }
    entries[kept++] = entries[i];
  }
  entries.resize(kept);
  FlatPlacement placement;
  placement.entries_ = std::move(entries);
  return placement;
}

std::string Distribution::ToString() const {
  return StrFormat("distribution{%zu classifications, %zu on client, %zu on server}",
                   placement.size(), CountOn(kClientMachine), CountOn(kServerMachine));
}

Distribution EverythingOn(MachineId machine) {
  Distribution d;
  d.default_machine = machine;
  return d;
}

}  // namespace coign
