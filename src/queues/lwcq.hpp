// LwCQ — linked list of wCQs (cf. Nikolaev & Ravindran, SPAA'22 §5).
//
// The unbounded queue over the wCQ segment backend, built by the same list
// layer as LCRQ and LSCQ (linked_segments.hpp): hazard-pointer reclamation
// and the bounded segment pool recycling drained rings (which also
// recycles their helping records — Wcq::reset clears them — so the memory
// bound survives arbitrary segment turnover, the "bounded memory" half of
// wCQ's title).
//
// Progress note: each segment's operations are wait-free (the helping
// layer in wcq.hpp), while the list-layer segment switches remain
// lock-free CAS races — the same layering as the paper's unbounded
// construction.  A request published on a segment that then drains
// resolves as EMPTY/CLOSED via helpers, never blocks the list.
//
// No bulk operations: a wCQ help record describes one ticket, so a batch
// claim has no slow path a helper could finish.
#pragma once

#include "arch/faa_policy.hpp"
#include "queues/hierarchy.hpp"
#include "queues/linked_segments.hpp"
#include "queues/wcq.hpp"

namespace lcrq {

using LwcqQueue = LinkedSegments<Wcq<HardwareFaa>>;
using LwcqNoReclaimQueue = LinkedSegments<Wcq<HardwareFaa>, NoHierarchy, false>;

}  // namespace lcrq
