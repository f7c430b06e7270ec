// Named schedule-injection points for the queue hot paths.
//
// The step models (verify/explore.hpp) can enumerate every interleaving of
// the *modeled* algorithms, but the production CRQ/LCRQ/hazard code is only
// exercised by whatever schedules the OS happens to produce — on a small
// host the narrow windows (ring close racing a bulk claim, hazard
// retirement racing a head swing, the starvation→tantrum transition) are
// hit by luck, not by construction.  This header plants *named points* at
// those windows; verify/schedule_injection.hpp drives them with seeded
// delays, targeted holds, and thread kills so the windows are reachable on
// demand and replayable from a seed.
//
// Cost model: the LCRQ_INJECT CMake option (default OFF) gates everything.
// When OFF, LCRQ_INJECT_POINT(p) expands to ((void)0) — no call, no load,
// no code — so release binaries are bit-for-bit free of the harness.  When
// ON, each point is one call into the controller, which returns after a
// single relaxed load while the controller is disarmed.
//
// This header stays dependency-free (the queue headers include it); the
// controller lives in verify/schedule_injection.{hpp,cpp}.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace lcrq::inject {

// Catalog of instrumented sites.  Every point is placed so that "thread T
// passed point P" has a crisp meaning for window forcing:
//   *AfterFaa    — the F&A completed; the ticket (or ticket range) is held.
//   *BeforeCas2  — the cell was validated; the CAS2 has not executed.
//   kEnqPublished / kListAppend / kRingCloseCas — the publishing RMW
//                  *succeeded*; the effect is globally visible.
enum class Point : std::uint8_t {
    kEnqAfterFaa = 0,      // Crq::enqueue, single ticket obtained
    kEnqBeforeCas2,        // Crq::try_put, cell checked, about to publish
    kEnqPublished,         // Crq::try_put, CAS2 succeeded (item visible)
    kDeqAfterFaa,          // Crq::dequeue, single ticket obtained
    kDeqBeforeCas2,        // Crq::try_take, before the dequeue transition
    kDeqBeforeEmptyCas2,   // Crq::try_take, before the empty transition
    kDeqBeforeUnsafeCas2,  // Crq::try_take, before the unsafe transition
    kRingCloseCas,         // Crq::close / ScqTicketCore::close, CLOSED bit now set
    kBulkEnqAfterFaa,      // Crq::try_enqueue_bulk, ticket range claimed
    kBulkDeqAfterFaa,      // Crq::dequeue_bulk, ticket range claimed
    kBulkTicketReturn,     // Crq::dequeue_bulk, before the handback CAS
    kListEmptyObserved,    // LinkedSegments::dequeue[_bulk], segment reported EMPTY
    kListAppend,           // LinkedSegments, fresh segment linked (append CAS succeeded)
    kListHeadSwing,        // LinkedSegments, before the head-swing CAS
    kHazardRetire,         // HazardDomain::retire, object handed over
    kHazardScan,           // HazardDomain::drain, reclamation pass starting
    kScqEnqAfterFaa,       // ScqTicketCore::fast_enqueue (both SCQ-family rings)
                           //   and ScqRing::enqueue_bulk, ticket obtained
    kScqAfterCycleLoad,    // ScqTicketCore::put_at/take_at, entry loaded, not yet acted on
    kScqBeforeEntryCas,    // SCQ-family ring, entry validated, single-word CAS pending
                           //   (put_at's publish, wCQ's consume, dequeue_transition)
    kScqEnqPublished,      // ScqTicketCore::put_at, entry CAS succeeded (index visible)
    kScqDeqAfterFaa,       // ScqTicketCore::fast_dequeue (both SCQ-family rings)
                           //   and ScqRing::dequeue_bulk, ticket obtained
    kScqThresholdDecrement,// ScqTicketCore::burned_ticket_empty (and ScqRing::
                           //   dequeue_bulk), about to decrement the threshold
    kScqCatchup,           // ScqTicketCore::catchup, tail repair loop entered
    kLaneEnqPending,       // Multilane::enqueue, presence announced, lane
                           //   insert not yet performed
    kLaneScan,             // Multilane dequeue scan, this lane's presence
                           //   slots recorded, about to probe the lane
    kLaneCertify,          // Multilane dequeue, round 1 found every lane empty
                           //   and quiescent, the fence and round 2 not yet run
    kWcqSlowCounted,       // WcqRing slow path, slow_count_ incremented but
                           //   the request not yet published (a kill here
                           //   leaves the counter one high, never negative)
    kWcqReqPublished,      // WcqRing slow path, helping record now pending
                           //   (req store succeeded; any peer can finish it)
    kWcqNotePlaced,        // WcqRing helper, cell reserved with a note CAS
    kWcqBeforeCommit,      // WcqRing helper, about to CAS the arg word
    kWcqCommitted,         // WcqRing helper, commit CAS succeeded; cleanup
                           //   (materialize/consume + done) still owed
    kWcqHelpScan,          // WcqRing fast path, about to scan peer records
    kClusterWait,          // ClusterHierarchy::enter, one wait-loop pass: a
                           //   foreign tag was observed, the timeout has not
                           //   expired (a hold here parks a waiter inside
                           //   the handoff window; a kill here models a
                           //   parked/dead waiter)
    kClusterClaim,         // ClusterHierarchy::enter, timeout expired, the
                           //   claiming tag CAS has not executed (a hold
                           //   here lets another claimant win the CAS; a
                           //   kill here models a claimant dying
                           //   mid-handoff)
    kBlockWait,            // BlockingQueue, waiter registered and re-check
                           //   done, about to sleep on the eventcount — the
                           //   items or space one, or a consumer's standby
                           //   slice (a kill here models a consumer/producer
                           //   dying while parked)
    kBlockSpin,            // BlockingQueue::wait_dequeue_until, spin token
                           //   claimed (the CAS succeeded), spin window not
                           //   yet opened (a kill here models a spinner dying
                           //   with the token: other waiters stand by until
                           //   its stamp goes stale, one window later)
    kBlockNotify,          // BlockingQueue (EventCount::signal), change
                           //   published, a waiter seen registered and the
                           //   epoch bumped, nobody woken or resumed yet
                           //   (a kill here models a producer dying between
                           //   publish and notify — sleeping threads must
                           //   still progress via the sliced wait)
    kDrain,                // BlockingQueue::drain, one drain-loop pass (a
                           //   kill here models a consumer dying mid-drain)
    kCount
};

inline constexpr std::size_t kPointCount = static_cast<std::size_t>(Point::kCount);

constexpr std::string_view point_name(Point p) noexcept {
    constexpr std::array<std::string_view, kPointCount> names = {
        "enq_after_faa",         "enq_before_cas2",  "enq_published",
        "deq_after_faa",         "deq_before_cas2",  "deq_before_empty_cas2",
        "deq_before_unsafe_cas2", "ring_close_cas",  "bulk_enq_after_faa",
        "bulk_deq_after_faa",    "bulk_ticket_return", "list_empty_observed",
        "list_append",           "list_head_swing",  "hazard_retire",
        "hazard_scan",           "scq_enq_after_faa",
        "scq_after_cycle_load",  "scq_before_entry_cas", "scq_enq_published",
        "scq_deq_after_faa",     "scq_threshold_decrement", "scq_catchup",
        "lane_enq_pending",      "lane_scan",        "lane_certify",
        "wcq_slow_counted",      "wcq_req_published", "wcq_note_placed",
        "wcq_before_commit",     "wcq_committed",    "wcq_help_scan",
        "cluster_wait",          "cluster_claim",    "block_wait",
        "block_spin",            "block_notify",     "drain",
    };
    return names[static_cast<std::size_t>(p)];
}

#if defined(LCRQ_INJECT)

// Defined in verify/schedule_injection.cpp.  May throw ThreadKilled when a
// kill rule fires, so instrumented functions must not be noexcept.
void on_point(Point p);

#define LCRQ_INJECT_POINT(p) ::lcrq::inject::on_point(::lcrq::inject::Point::p)
// Functions that contain (or call through to) injection points drop their
// noexcept in instrumented builds so kill injection can unwind out of them.
#define LCRQ_INJECT_NOEXCEPT

#else

#define LCRQ_INJECT_POINT(p) ((void)0)
#define LCRQ_INJECT_NOEXCEPT noexcept

#endif

}  // namespace lcrq::inject
