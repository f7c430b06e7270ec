// LCRQ — linked list of CRQs (paper §4.2, Figure 5, corrected version).
//
// The unbounded queue is a Michael–Scott list whose nodes are whole CRQ
// rings (the shared list layer, linked_segments.hpp).  A CRQ closes itself
// when it fills or an enqueuer starves (the tantrum), so the list appends
// a fresh ring seeded with the refused item and enqueuers move on to it.
//
// Template parameters select the paper's evaluated variants:
//   LinkedSegments<Crq<HardwareFaa>>                   — LCRQ
//   LinkedSegments<Crq<CasLoopFaa>>                    — LCRQ-CAS
//   LinkedSegments<Crq<HardwareFaa>, ClusterHierarchy> — LCRQ-H (the paper's LCRQ+H)
#pragma once

#include "arch/faa_policy.hpp"
#include "queues/crq.hpp"
#include "queues/hierarchy.hpp"
#include "queues/linked_segments.hpp"

namespace lcrq {

// The paper's evaluated variants.
using LcrqQueue = LinkedSegments<Crq<HardwareFaa>>;
using LcrqCasQueue = LinkedSegments<Crq<CasLoopFaa>>;
using LcrqHQueue = LinkedSegments<Crq<HardwareFaa>, ClusterHierarchy>;
// Ablations: nodes packed 4-per-cache-line; no hazard protection (prices
// the paper's footnote-6 overhead, leaks rings until destruction).
using LcrqCompactQueue = LinkedSegments<Crq<HardwareFaa, false>>;
using LcrqNoReclaimQueue = LinkedSegments<Crq<HardwareFaa>, NoHierarchy, false>;

}  // namespace lcrq
