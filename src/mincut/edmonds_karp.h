// Edmonds-Karp maximum flow — the verification baseline for the
// relabel-to-front implementation. Both must find identical cut values on
// every graph (the cut itself may differ when several minimum cuts exist).

#ifndef COIGN_SRC_MINCUT_EDMONDS_KARP_H_
#define COIGN_SRC_MINCUT_EDMONDS_KARP_H_

#include "src/mincut/compact_flow_network.h"

namespace coign {

// The input network is not modified (flow accumulates from zero on a
// per-call working copy, finalized there if the caller has not), so
// concurrent cuts are safe.
CutResult MinCutEdmondsKarp(const CompactFlowNetwork& network, int source, int sink);

}  // namespace coign

#endif  // COIGN_SRC_MINCUT_EDMONDS_KARP_H_
