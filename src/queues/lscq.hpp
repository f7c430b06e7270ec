// LSCQ — linked list of SCQs (Nikolaev, DISC'19 §5; see PAPERS.md).
//
// The unbounded queue over the SCQ segment backend, built by the same list
// layer as LCRQ (linked_segments.hpp): a Michael–Scott list whose nodes are
// whole bounded queues, with nearly all activity inside one segment.  SCQ
// never closes itself; when a segment reports FULL the list closes it —
// exactly where CRQ would tantrum — and appends a fresh one.
//
// Unlike LCRQ, no operation in the list or in the segments uses CAS2 —
// every RMW is on a single 64-bit word, which is the point of carrying a
// second backend: identical harness, portable primitives (the segment pool
// preserves this: its pop is an exchange, not a tagged CAS).
#pragma once

#include "arch/faa_policy.hpp"
#include "queues/hierarchy.hpp"
#include "queues/linked_segments.hpp"
#include "queues/scq.hpp"

namespace lcrq {

using LscqQueue = LinkedSegments<Scq<HardwareFaa>>;
using LscqCasQueue = LinkedSegments<Scq<CasLoopFaa>>;
// LSCQ-H: the §4.1.1 cluster handoff over the SCQ segment backend — the
// hierarchical variant that stays CAS2-free (the tag CAS is single-word).
using LscqHQueue = LinkedSegments<Scq<HardwareFaa>, ClusterHierarchy>;
using LscqNoReclaimQueue = LinkedSegments<Scq<HardwareFaa>, NoHierarchy, false>;

}  // namespace lcrq
