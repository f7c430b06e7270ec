// Per-thread software event counters.
//
// Tables 2 and 3 of the paper report per-operation atomic-instruction
// counts and CAS-failure behaviour; Figure 1's right axis reports CASes per
// successful increment.  Hardware PMUs are usually unavailable inside
// containers, so the library maintains these counts in software: each
// thread increments its own block (never shared for writing), and a
// snapshot sums the blocks on demand.
//
// The blocks live in one process-wide ThreadTable (arch/thread_id.hpp),
// one per dense thread id.  A block outlives its thread and passes with
// the id to the next owner, so exited threads' counts stay in every
// snapshot and no thread start or exit takes a lock.  The table is never
// destroyed, so a count made late in process exit stays defined.
//
// The counters are always compiled in.  The per-thread slots are relaxed
// std::atomic so aggregation may read them *while the owner is counting*
// (the JSON pipeline samples mid-run): the increment compiles to the same
// unlocked load/add/store as a plain uint64_t on x86 — no lock prefix —
// on a cache line the owning thread already holds exclusive, which is
// noise next to the contended lock-prefixed instruction being counted.
// Plain uint64_t slots would make a snapshot a data race (UB,
// TSan-flagged) against the owner's `+=`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

#include "arch/cacheline.hpp"
#include "arch/thread_id.hpp"

namespace lcrq::stats {

enum class Event : unsigned {
    kFaa = 0,          // hardware fetch-and-add executed
    kSwap,             // hardware swap executed
    kTas,              // hardware test-and-set executed
    kFetchOr,          // hardware fetch-or executed (SCQ consume)
    kCas,              // single-word CAS attempts
    kCasFailure,       // single-word CAS attempts that failed
    kCas2,             // double-width CAS attempts
    kCas2Failure,      // double-width CAS attempts that failed
    kEnqueue,          // completed enqueue operations
    kDequeue,          // completed dequeue operations (incl. EMPTY)
    kDequeueEmpty,     // dequeues that returned EMPTY
    kCrqClose,         // CRQ transitions to CLOSED
    kCrqAppend,        // new CRQ appended to the LCRQ list
    kRingRetry,        // extra F&A rounds inside one CRQ operation
    kSpinWait,         // dequeue spin-waits for a matching enqueuer
    kUnsafeTransition, // dequeuer marked a node unsafe
    kEmptyTransition,  // dequeuer performed an empty transition
    kCombine,          // operations a combiner applied on behalf of others
    kCombinerAcquire,  // times a thread became combiner
    kClusterEnter,     // hierarchical enter() calls (handoff-rate denominator)
    kClusterWait,      // enters that found a foreign tag and spun for it
    kClusterHandoff,   // hierarchical cluster ownership changes
    kBulkEnqueue,      // completed enqueue_bulk operations
    kBulkDequeue,      // completed dequeue_bulk operations (incl. empty)
    kBulkFaa,          // batched F&As (one per bulk ticket-claim round)
    kBulkTickets,      // ring tickets claimed by batched F&As
    kBulkWasted,       // batch tickets that produced no enqueue/dequeue
    kSegmentAlloc,     // ring segments obtained from the allocator
    kSegmentReuse,     // ring segments recycled from a segment pool
    kSegmentPopLocal,  // pool pops served by the popper's home shard
    kSegmentPopRemote, // pool pops that had to scan a foreign shard
    kSegmentHuge,      // ring slabs actually backed by MADV_HUGEPAGE
    kLaneLocalHit,     // multilane dequeues served by the caller's own lane
    kLaneSteal,        // multilane dequeues served by another thread's lane
    kLaneEmptyScan,    // multilane full-lane scans that found nothing
    kWcqSlowPath,      // wCQ operations that published a helping record
    kWcqHelp,          // wCQ helping passes over a pending request
    kBlockedEnq,       // blocking-facade enqueues that slept for capacity
    kBlockedDeq,       // blocking-facade dequeues that slept for an item
    kShed,             // bounded-facade enqueues refused at the watermark
    kCount
};

inline constexpr std::size_t kEventCount = static_cast<std::size_t>(Event::kCount);

constexpr std::string_view event_name(Event e) noexcept {
    constexpr std::array<std::string_view, kEventCount> names = {
        "faa",           "swap",         "tas",
        "fetch_or",      "cas",          "cas_failure",  "cas2",
        "cas2_failure",  "enqueue",      "dequeue",
        "dequeue_empty", "crq_close",    "crq_append",
        "ring_retry",    "spin_wait",    "unsafe_transition",
        "empty_transition", "combine",   "combiner_acquire",
        "cluster_enter", "cluster_wait",
        "cluster_handoff", "bulk_enqueue", "bulk_dequeue",
        "bulk_faa",      "bulk_tickets", "bulk_wasted",
        "segment_alloc", "segment_reuse",
        "segment_pop_local", "segment_pop_remote", "segment_huge",
        "lane_local_hit", "lane_steal",  "lane_empty_scan",
        "wcq_slow_path", "wcq_help",
        "blocked_enq",   "blocked_deq",  "shed",
    };
    return names[static_cast<std::size_t>(e)];
}

struct Snapshot {
    std::array<std::uint64_t, kEventCount> counts{};

    std::uint64_t operator[](Event e) const noexcept {
        return counts[static_cast<std::size_t>(e)];
    }
    std::uint64_t& operator[](Event e) noexcept {
        return counts[static_cast<std::size_t>(e)];
    }
    Snapshot& operator+=(const Snapshot& o) noexcept {
        for (std::size_t i = 0; i < kEventCount; ++i) counts[i] += o.counts[i];
        return *this;
    }
    Snapshot operator-(const Snapshot& o) const noexcept {
        Snapshot r;
        for (std::size_t i = 0; i < kEventCount; ++i) r.counts[i] = counts[i] - o.counts[i];
        return r;
    }
    std::uint64_t operations() const noexcept {
        return (*this)[Event::kEnqueue] + (*this)[Event::kDequeue];
    }
    // "Atomic operations" row of Tables 2/3: every lock-prefixed RMW.
    std::uint64_t atomic_ops() const noexcept {
        return (*this)[Event::kFaa] + (*this)[Event::kSwap] + (*this)[Event::kTas] +
               (*this)[Event::kFetchOr] + (*this)[Event::kCas] + (*this)[Event::kCas2];
    }
};

namespace detail {

struct alignas(kCacheLineSize) ThreadBlock {
    // Written only by the thread holding the block's id; read concurrently
    // by aggregation.
    // Relaxed ordering everywhere: each slot is an independent monotonic
    // counter and a snapshot only promises per-slot atomicity.
    std::array<std::atomic<std::uint64_t>, kEventCount> counts{};
};

// Allocated on first use and never destroyed (see the header comment).
inline ThreadTable<ThreadBlock>& blocks() {
    static ThreadTable<ThreadBlock>* const table = new ThreadTable<ThreadBlock>;
    return *table;
}

inline ThreadBlock& local_block() {
    // Constant-initialized and trivially destructible, so reading it costs
    // no guard check and the thread's exit runs nothing for it; the first
    // count fills it from the table.
    thread_local ThreadBlock* block = nullptr;
    if (block == nullptr) block = &blocks().local();
    return *block;
}

}  // namespace detail

inline void count(Event e, std::uint64_t n = 1) noexcept {
    // store(load + n) instead of fetch_add: the slot has a single writer,
    // so this stays an ordinary MOV/ADD/MOV on x86 (no lock prefix) while
    // making concurrent snapshot reads well-defined.
    auto& slot = detail::local_block().counts[static_cast<std::size_t>(e)];
    slot.store(slot.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Sum over all threads that ever counted (including exited ones).
inline Snapshot global_snapshot() {
    Snapshot s;
    detail::blocks().for_each([&](const detail::ThreadBlock& b) {
        for (std::size_t i = 0; i < kEventCount; ++i) {
            s.counts[i] += b.counts[i].load(std::memory_order_relaxed);
        }
    });
    return s;
}

// Zero all counters.  Only call while no instrumented code is running.
inline void reset_all() {
    detail::blocks().for_each([](detail::ThreadBlock& b) {
        for (auto& slot : b.counts) slot.store(0, std::memory_order_relaxed);
    });
}

}  // namespace lcrq::stats
