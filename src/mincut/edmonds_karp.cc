#include "src/mincut/edmonds_karp.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

namespace coign {

CutResult MinCutEdmondsKarp(const CompactFlowNetwork& original, int source, int sink) {
  assert(source != sink);
  // Augmentation mutates only this per-call copy; see the header's
  // re-entrancy contract.
  CompactFlowNetwork network = original;
  network.Finalize();
  network.ResetFlow();
  CapUnits total_flow = 0;
  const int n = network.node_count();

  while (true) {
    // BFS for the shortest augmenting path.
    std::vector<int> parent_node(static_cast<size_t>(n), -1);
    std::vector<int> parent_arc(static_cast<size_t>(n), 0);  // Global arc index.
    std::deque<int> queue = {source};
    parent_node[static_cast<size_t>(source)] = source;
    while (!queue.empty() && parent_node[static_cast<size_t>(sink)] < 0) {
      const int u = queue.front();
      queue.pop_front();
      const int end = network.first_out(u + 1);
      for (int a = network.first_out(u); a < end; ++a) {
        const CompactArc& arc = network.arc(a);
        if (arc.Residual() > 0 && parent_node[static_cast<size_t>(arc.to)] < 0) {
          parent_node[static_cast<size_t>(arc.to)] = u;
          parent_arc[static_cast<size_t>(arc.to)] = a;
          queue.push_back(arc.to);
        }
      }
    }
    if (parent_node[static_cast<size_t>(sink)] < 0) {
      break;  // No augmenting path remains.
    }

    // Bottleneck along the path. A path of all-sentinel arcs bottlenecks
    // at kInfiniteCapacity itself; the augment below then saturates those
    // arcs exactly, so the loop still terminates on infeasible inputs.
    CapUnits bottleneck = kInfiniteCapacity;
    for (int v = sink; v != source; v = parent_node[static_cast<size_t>(v)]) {
      const CompactArc& arc = network.arc(parent_arc[static_cast<size_t>(v)]);
      bottleneck = std::min(bottleneck, arc.Residual());
    }
    assert(bottleneck > 0);

    // Augment. Per-arc updates are exact (flow + bottleneck <= capacity on
    // the bottleneck arc, and every arc's flow stays within its capacity);
    // only the running total can saturate, which is the desired sentinel.
    for (int v = sink; v != source; v = parent_node[static_cast<size_t>(v)]) {
      CompactArc& arc = network.arc(parent_arc[static_cast<size_t>(v)]);
      arc.flow = SatAdd(arc.flow, bottleneck);
      CompactArc& reverse = network.arc(arc.reverse);
      reverse.flow = SatSub(reverse.flow, bottleneck);
    }
    total_flow = SatAdd(total_flow, bottleneck);
  }

  return network.ExtractCut(source, total_flow);
}

}  // namespace coign
