// A distribution: the mapping from instance classifications to machines.
//
// "Part of the output of the profile analysis engine is a map of instance
// classifications to computers in the network." (paper §3.4) The component
// factory consults this map to relocate instantiation requests; the
// simulator uses it to place instances.

#ifndef COIGN_SRC_GRAPH_DISTRIBUTION_H_
#define COIGN_SRC_GRAPH_DISTRIBUTION_H_

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/classify/descriptor.h"
#include "src/com/types.h"

namespace coign {

// The classification → machine map as one array of (id, machine) pairs,
// sorted by id with no id twice. Copying a placement is one allocation,
// iterating it is a scan in id order, and equal maps compare equal as
// arrays. Classification ids are dense in discovery order, so a lookup
// first probes slot `id`; it binary-searches only when that misses.
//
// Writers: operator[] appends when the id is above the last one (the
// engines write ascending ids) and inserts in place otherwise; loaders of
// untrusted text build once through FromEntries. Iteration is read-only,
// so no caller can rewrite an id; UpdateMachines changes machines in place.
class FlatPlacement {
 public:
  using value_type = std::pair<ClassificationId, MachineId>;
  using const_iterator = std::vector<value_type>::const_iterator;

  FlatPlacement() = default;

  // Builds from pairs in any order in O(n log n); where an id repeats,
  // the last pair wins.
  static FlatPlacement FromEntries(std::vector<value_type> entries);

  // Like std::map: inserts the id with machine 0 when it is absent.
  MachineId& operator[](ClassificationId id) {
    if (entries_.empty() || entries_.back().first < id) {
      return entries_.emplace_back(id, MachineId{}).second;
    }
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), id, KeyLess);
    if (it != entries_.end() && it->first == id) {
      return it->second;
    }
    return entries_.emplace(it, id, MachineId{})->second;
  }

  // Probes slot `id` first. Sorted unique ids satisfy entries[i].first >= i,
  // so when that slot holds a larger id the answer, if any, lies below it.
  const_iterator find(ClassificationId id) const {
    auto last = entries_.end();
    if (id < entries_.size()) {
      const auto slot = entries_.begin() + id;
      if (slot->first == id) {
        return slot;
      }
      last = slot;
    }
    const auto it = std::lower_bound(entries_.begin(), last, id, KeyLess);
    return it != last && it->first == id ? it : entries_.end();
  }

  // Throws std::out_of_range when the id is absent, as std::map::at does.
  const MachineId& at(ClassificationId id) const {
    const auto it = find(id);
    if (it == end()) {
      throw std::out_of_range("FlatPlacement::at: classification not placed");
    }
    return it->second;
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Calls fn(id, machine) for every pair in id order; fn may assign the
  // machine (a MachineId&) but sees the id as const.
  template <typename Fn>
  void UpdateMachines(Fn&& fn) {
    for (auto& [id, machine] : entries_) {
      fn(std::as_const(id), machine);
    }
  }

  friend bool operator==(const FlatPlacement& a, const FlatPlacement& b) {
    return a.entries_ == b.entries_;
  }

 private:
  static bool KeyLess(const value_type& entry, ClassificationId id) { return entry.first < id; }

  std::vector<value_type> entries_;
};

struct Distribution {
  FlatPlacement placement;
  // Machine for classifications absent from the map (new classifications at
  // run time default to the client, where the user drives the app).
  MachineId default_machine = kClientMachine;

  MachineId MachineFor(ClassificationId id) const {
    auto it = placement.find(id);
    return it == placement.end() ? default_machine : it->second;
  }

  size_t CountOn(MachineId machine) const {
    size_t count = 0;
    for (const auto& [id, m] : placement) {
      count += (m == machine) ? 1 : 0;
    }
    return count;
  }

  size_t size() const { return placement.size(); }

  std::string ToString() const;
};

// All classifications on one machine — the non-distributed baseline.
Distribution EverythingOn(MachineId machine);

}  // namespace coign

#endif  // COIGN_SRC_GRAPH_DISTRIBUTION_H_
