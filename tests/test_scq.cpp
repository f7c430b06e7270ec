// SCQ ring and value-queue pair (queues/scq.hpp) plus the LSCQ list
// (queues/lscq.hpp): the single-word entry invariant the backend exists
// for, ring FIFO/wrap/threshold behaviour, the aq/fq slot-recycling
// discipline, closed-segment semantics, the list's kept slots, and MPMC
// exchanges on both the bounded queue and the unbounded list (with hazard
// reclamation).
//
// The ring and value-queue behaviour SCQ and wCQ share (wCQ is SCQ's
// ticket core plus helping, and both value queues are one template) runs
// as typed suites over both; wCQ's helping path lives in test_wcq.cpp.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/scq.hpp"
#include "queues/wcq.hpp"
#include "test_support.hpp"
#include "util/xorshift.hpp"

namespace lcrq {
namespace {

// The reason SCQ is here at all: every hot-path RMW is on one lock-free
// 64-bit word.  If Entry ever grows past 8 bytes or loses lock-freedom,
// the backend has silently reacquired CRQ's cmpxchg16b dependence.
static_assert(sizeof(ScqRing<>::Entry) == 8);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(BulkConcurrentQueue<ScqQueue>);
static_assert(BulkConcurrentQueue<LscqQueue>);
static_assert(BulkConcurrentQueue<LinkedSegments<Scq<CasLoopFaa>>>);
static_assert(BulkConcurrentQueue<LscqNoReclaimQueue>);

TEST(ScqEntry, AtomicEntryIsLockFreeAtRuntime) {
    ScqRing<>::Entry e{0};
    EXPECT_TRUE(e.is_lock_free()) << "SCQ's portability claim needs a "
                                     "lock-free single-word entry";
}

// Typed-suite names: the family member, "scq" or "wcq".
struct RingName {
    template <typename R>
    static std::string GetName(int) {
        return R::kName;
    }
};
struct SegmentName {
    template <typename Q>
    static std::string GetName(int) {
        return Q::Ring::kName;
    }
};

// --- raw ring: the shared ticket core -------------------------------------

template <typename R>
struct ScqFamilyRing : ::testing::Test {};
using FamilyRings = ::testing::Types<ScqRing<>, WcqRing<>>;
TYPED_TEST_SUITE(ScqFamilyRing, FamilyRings, RingName);

TYPED_TEST(ScqFamilyRing, FifoAcrossManyLaps) {
    TypeParam r(2);  // capacity 4, ring of 8 entries
    for (std::uint64_t lap = 0; lap < 16; ++lap) {
        for (std::uint64_t i = 0; i < 4; ++i) {
            ASSERT_EQ(r.enqueue(i), EnqueueResult::kOk);
        }
        for (std::uint64_t i = 0; i < 4; ++i) {
            ASSERT_EQ(r.dequeue().value_or(99), i) << "lap " << lap;
        }
        ASSERT_FALSE(r.dequeue().has_value());
    }
}

TYPED_TEST(ScqFamilyRing, EmptyRingAnswersEmptyViaThresholdFastPath) {
    TypeParam r(2);
    // A fresh unseeded ring starts with threshold -1: the first dequeue
    // answers EMPTY from one load, without burning a head ticket.
    EXPECT_LT(r.threshold(), 0);
    const std::uint64_t h = r.head_index();
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_EQ(r.head_index(), h) << "fast-path EMPTY must not take a ticket";
}

TYPED_TEST(ScqFamilyRing, EnqueueRearmsThresholdTo3nMinus1) {
    TypeParam r(2);  // n = 4
    ASSERT_EQ(r.enqueue(0), EnqueueResult::kOk);
    EXPECT_EQ(r.threshold(), 3 * 4 - 1);
    // Draining decrements it only on failed tickets; the consume itself
    // leaves the bound alone.
    ASSERT_TRUE(r.dequeue().has_value());
    EXPECT_EQ(r.threshold(), 3 * 4 - 1);
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_LT(r.threshold(), 3 * 4 - 1);
}

TYPED_TEST(ScqFamilyRing, SeededConstructionHoldsTheRange) {
    TypeParam r(3, 2, 7);  // seeds 2..6
    EXPECT_EQ(r.tail_index() - r.head_index(), 5u);
    for (std::uint64_t i = 2; i < 7; ++i) {
        ASSERT_EQ(r.dequeue().value_or(99), i);
    }
    EXPECT_FALSE(r.dequeue().has_value());
}

TYPED_TEST(ScqFamilyRing, CloseRefusesEnqueuesButDrains) {
    TypeParam r(2);
    ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);
    ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
    r.close();
    EXPECT_TRUE(r.closed());
    EXPECT_EQ(r.enqueue(3), EnqueueResult::kClosed);
    EXPECT_EQ(r.dequeue().value_or(0), 1u);
    EXPECT_EQ(r.dequeue().value_or(0), 2u);
    EXPECT_FALSE(r.dequeue().has_value());
    r.close();  // idempotent
    EXPECT_TRUE(r.closed());
}

TYPED_TEST(ScqFamilyRing, StolenEnqueueTicketLeavesHoleDequeuersPass) {
    TypeParam r(3);
    ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);
    r.debug_take_enqueue_ticket();  // claimed, never published
    ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
    EXPECT_EQ(r.dequeue().value_or(0), 1u);
    // The dequeuer at the hole performs an empty transition and moves on.
    EXPECT_EQ(r.dequeue().value_or(0), 2u);
    EXPECT_FALSE(r.dequeue().has_value());
}

TYPED_TEST(ScqFamilyRing, ConcurrentIndexCirculation) {
    // Indices 0..n-1 circulate through the ring under contention — the fq
    // duty cycle.  Conservation: each index in flight exactly once.
    TypeParam r(4, 0, 16);  // seeded full: 16 indices
    std::atomic<std::uint64_t> moves{0};
    test::run_threads(4, [&](int) {
        while (moves.load(std::memory_order_relaxed) < 40'000) {
            if (auto idx = r.dequeue()) {
                ASSERT_LT(*idx, 16u);
                ASSERT_EQ(r.enqueue(*idx), EnqueueResult::kOk);
                moves.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    std::vector<bool> seen(16, false);
    std::uint64_t count = 0;
    while (auto idx = r.dequeue()) {
        ASSERT_FALSE(seen[*idx]) << "index " << *idx << " duplicated";
        seen[*idx] = true;
        ++count;
    }
    EXPECT_EQ(count, 16u);
}

// --- raw ring: SCQ's batch claims -----------------------------------------

TEST(ScqRing, BulkClaimsCostOneFaaPerRound) {
    ScqRing<> r(5);  // capacity 32
    const std::uint64_t idxs[16] = {0, 1, 2,  3,  4,  5,  6,  7,
                                    8, 9, 10, 11, 12, 13, 14, 15};
    stats::reset_all();
    ASSERT_EQ(r.enqueue_bulk(idxs), 16u);
    auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkTickets], 16u);
    EXPECT_EQ(snap[stats::Event::kBulkWasted], 0u);
    EXPECT_EQ(snap[stats::Event::kFaa], 1u)
        << "uncontended ring batch must cost one F&A";

    std::uint64_t out[16];
    stats::reset_all();
    ASSERT_EQ(r.dequeue_bulk(out, 16), 16u);
    snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkTickets], 16u);
    for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], i);
}

TEST(ScqRing, EmptyBulkDequeueReturnsUnspentTickets) {
    ScqRing<> r(5);
    ASSERT_EQ(r.enqueue(7), EnqueueResult::kOk);
    ASSERT_TRUE(r.dequeue().has_value());  // threshold armed, ring empty
    std::uint64_t out[8];
    const std::uint64_t h = r.head_index();
    EXPECT_EQ(r.dequeue_bulk(out, 8), 0u);
    // One ticket burned observing empty; the CAS-back returned the rest.
    EXPECT_EQ(r.head_index(), h + 1);
    EXPECT_EQ(r.tail_index(), r.head_index()) << "catchup must repair tail";
    // The ring still works at full capacity afterwards.
    for (std::uint64_t i = 0; i < 32; ++i) {
        ASSERT_EQ(r.enqueue(i), EnqueueResult::kOk);
    }
    ASSERT_EQ(r.dequeue_bulk(out, 8), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
}

// The batch hand-back's frozen-tail guard.  Two enqueuers stall after their
// tail F&A (tickets 16 and 17), then the ring closes with its tail frozen
// at 18.  A batch claiming 16..19 sees EMPTY at ticket 16 by the exhausted
// threshold; handing 17..19 back there would drop head to 17, below the
// frozen tail, and re-expose ticket 17 to a later dequeuer while its
// stalled enqueuer can still publish into a segment the list layer
// retires on EMPTY.  The guard spends ticket 17 instead, and hands back
// only what lies past the frozen tail.
TEST(ScqRing, BulkHandBackNeverDropsHeadBelowAFrozenTail) {
    ScqRing<> r(3);  // capacity 8: head = tail = 16 on a fresh ring
    r.debug_take_enqueue_ticket();
    r.debug_take_enqueue_ticket();
    r.close();
    std::uint64_t out[4];
    EXPECT_EQ(r.dequeue_bulk(out, 4), 0u);
    EXPECT_EQ(r.tail_index(), 18u);
    EXPECT_EQ(r.head_index(), 18u);
}

// --- the aq/fq value queue ------------------------------------------------

template <typename Q>
struct ScqFamilyValueQueue : ::testing::Test {};
using FamilySegments = ::testing::Types<Scq<>, Wcq<>>;
TYPED_TEST_SUITE(ScqFamilyValueQueue, FamilySegments, SegmentName);

TYPED_TEST(ScqFamilyValueQueue, RoundTripAndBackpressure) {
    TypeParam q(2);  // capacity 4
    EXPECT_EQ(q.capacity(), 4u);
    for (value_t v = 10; v < 14; ++v) {
        ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    // Every slot index is in flight: bounded backpressure, not a tantrum.
    EXPECT_EQ(q.try_enqueue(99), EnqueueResult::kFull);
    EXPECT_EQ(q.dequeue().value_or(0), 10u);
    // The freed slot makes room again.
    EXPECT_EQ(q.try_enqueue(14), EnqueueResult::kOk);
    for (value_t v = 11; v < 15; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(ScqFamilyValueQueue, SeededConstructionMatchesListAppend) {
    TypeParam q(2, 42);
    EXPECT_EQ(q.approx_size(), 1u);
    EXPECT_EQ(q.dequeue().value_or(0), 42u);
    EXPECT_FALSE(q.dequeue().has_value());
    // The seeded slot returned to the free list: full capacity available.
    for (value_t v = 1; v <= 4; ++v) {
        ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    EXPECT_EQ(q.try_enqueue(5), EnqueueResult::kFull);
}

TYPED_TEST(ScqFamilyValueQueue, CloseRecyclesTheUnpublishedSlot) {
    TypeParam q(2);
    ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    q.close();
    EXPECT_TRUE(q.closed());
    // The refused item's slot goes back to fq — repeated refusals must not
    // leak the free list dry.
    for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(q.try_enqueue(50), EnqueueResult::kClosed);
    }
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(ScqFamilyValueQueue, ConsecutiveSlotsLandOnDistinctLines) {
    // Kept slots make a shallow run circulate a few consecutive indices
    // (fq hands them out in order); packed, slots 0-7 would share a line.
    for (unsigned order : {6u, 12u}) {
        TypeParam q(order);
        std::set<std::uintptr_t> lines;
        for (std::uint64_t s = 0; s < 8; ++s) {
            lines.insert(reinterpret_cast<std::uintptr_t>(q.debug_slot_address(s)) /
                         kCacheLineSize);
        }
        EXPECT_EQ(lines.size(), 8u) << "order " << order;
    }
}

TYPED_TEST(ScqFamilyValueQueue, SlotMapIsABijection) {
    for (unsigned order = 1; order <= 16; ++order) {
        TypeParam q(order);
        const std::uint64_t n = q.capacity();
        // Slot 0 stays at the start of the array under any rotation.
        const auto* base = static_cast<const value_t*>(q.debug_slot_address(0));
        std::vector<bool> taken(n, false);
        for (std::uint64_t s = 0; s < n; ++s) {
            const auto pos = static_cast<const value_t*>(q.debug_slot_address(s)) - base;
            ASSERT_GE(pos, 0) << "order " << order << " slot " << s;
            ASSERT_LT(static_cast<std::uint64_t>(pos), n) << "order " << order << " slot " << s;
            ASSERT_FALSE(taken[pos]) << "order " << order << " slot " << s;
            taken[pos] = true;
        }
    }
}

// --- the aq/fq value queue: SCQ's batch paths -------------------------------

TEST(ScqValueQueue, BulkRoundTripCostsTwoFaasPerSide) {
    Scq<> q(6);  // capacity 64 = one chunk
    std::vector<value_t> in;
    for (value_t v = 1; v <= 48; ++v) in.push_back(v);
    stats::reset_all();
    const auto put = q.try_enqueue_bulk(in);
    ASSERT_EQ(put.done, in.size());
    EXPECT_EQ(put.status, EnqueueResult::kOk);
    auto snap = stats::global_snapshot();
    // One fq claim round + one aq claim round.
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 2u);
    EXPECT_EQ(snap[stats::Event::kFaa], 2u)
        << "a k-item batch must cost ~2 F&As, not 2k";

    std::vector<value_t> out(in.size());
    ASSERT_EQ(q.dequeue_bulk(out.data(), out.size()), in.size());
    EXPECT_EQ(out, in);
}

TEST(ScqValueQueue, BulkLargerThanCapacityStopsAtFull) {
    Scq<> q(2);  // capacity 4
    std::vector<value_t> in = {1, 2, 3, 4, 5, 6};
    const auto put = q.try_enqueue_bulk(in);
    EXPECT_EQ(put.done, 4u);
    EXPECT_EQ(put.status, EnqueueResult::kFull);
    value_t out[8];
    ASSERT_EQ(q.dequeue_bulk(out, 8), 4u);
    for (value_t v = 1; v <= 4; ++v) EXPECT_EQ(out[v - 1], v);
}

// --- the bounded registry queue ------------------------------------------

TEST(ScqQueueTest, MpmcExchangeLosesNothing) {
    QueueOptions opt;
    opt.bounded_order = 6;  // capacity 64: producers feel backpressure
    ScqQueue q(opt);
    const auto received = test::mpmc_exchange(q, 3, 3, 4'000);
    test::expect_exchange_valid(received, 3, 4'000);
}

TEST(ScqQueueTest, EnqueueSpinsThroughFullAndRecovers) {
    QueueOptions opt;
    opt.bounded_order = 2;  // capacity 4
    ScqQueue q(opt);
    std::atomic<bool> done{false};
    test::run_threads(2, [&](int id) {
        if (id == 0) {
            for (value_t v = 1; v <= 2'000; ++v) q.enqueue(v);
            done.store(true, std::memory_order_release);
        } else {
            value_t expected = 1;
            while (expected <= 2'000) {
                if (auto v = q.dequeue()) {
                    ASSERT_EQ(*v, expected);  // SPSC: strict FIFO
                    ++expected;
                }
            }
        }
    });
    EXPECT_TRUE(done.load());
    EXPECT_FALSE(q.dequeue().has_value());
}

// --- the LSCQ list -------------------------------------------------------

TEST(LscqTest, FifoAcrossSegmentBoundaries) {
    QueueOptions opt;
    opt.ring_order = 2;  // segment capacity 4: constant turnover
    LscqQueue q(opt);
    for (value_t v = 1; v <= 40; ++v) q.enqueue(v);
    EXPECT_GT(q.segment_count(), 1u) << "tiny segments must have split";
    for (value_t v = 1; v <= 40; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(LscqTest, CloseIsAStickyBarrier) {
    LscqQueue q;
    q.enqueue(1);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.try_enqueue(2), EnqueueResult::kClosed);
    EXPECT_FALSE(q.try_enqueue_bulk(std::vector<value_t>{3, 4}));
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(LscqTest, SegmentTurnoverReclaimsThroughHazards) {
    QueueOptions opt;
    opt.ring_order = 2;
    LscqQueue q(opt);
    test::run_threads(2, [&](int id) {
        if (id == 0) {
            for (std::uint64_t i = 0; i < 20'000; ++i) q.enqueue(test::tag(0, i));
        } else {
            std::uint64_t expected = 0;
            while (expected < 20'000) {
                if (auto v = q.dequeue()) {
                    ASSERT_EQ(test::tag_seq(*v), expected);
                    ++expected;
                }
            }
        }
    });
    q.hazard_domain().scan();
    EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    EXPECT_LE(q.segment_count(), 3u);
}

TEST(LscqTest, MpmcExchangeAllVariants) {
    QueueOptions opt;
    opt.ring_order = 2;
    {
        LscqQueue q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
    {
        LinkedSegments<Scq<CasLoopFaa>> q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
    {
        LscqNoReclaimQueue q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
}

TEST(LscqTest, ApproxSizeTracksOccupancyAcrossSegments) {
    QueueOptions opt;
    opt.ring_order = 2;
    LscqQueue q(opt);
    EXPECT_EQ(q.approx_size(), 0u);
    for (value_t v = 1; v <= 10; ++v) q.enqueue(v);
    EXPECT_EQ(q.approx_size(), 10u);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_EQ(q.approx_size(), 0u);
}

// One cache per queue: a thread that dequeues from A and enqueues into B
// keeps A's freed slot for its next enqueue into A and B's for B.  A cache
// shared by every queue a thread touches would drop one of A's slots on
// each keep in B (and the reverse), so each queue would close a segment
// and append a fresh one about every R = 8 items.
TEST(LscqTest, KeptSlotsStayWithTheirQueue) {
    QueueOptions opt;
    opt.ring_order = 3;
    LscqQueue a(opt);
    LscqQueue b(opt);
    constexpr value_t kItems = 10'000;
    constexpr value_t kInFlight = 4;
    const auto before = stats::global_snapshot();
    test::run_threads(1, [&](int) {
        value_t expected = 1;
        const auto relay_one = [&] {
            const auto v = a.dequeue();
            ASSERT_TRUE(v.has_value());
            b.enqueue(*v);
            ASSERT_EQ(b.dequeue().value_or(0), expected++);
        };
        for (value_t v = 1; v <= kItems; ++v) {
            a.enqueue(v);
            if (v >= kInFlight) relay_one();
        }
        for (value_t left = 1; left < kInFlight; ++left) relay_one();
        EXPECT_FALSE(a.dequeue().has_value());
        EXPECT_FALSE(b.dequeue().has_value());
    });
    const auto d = stats::global_snapshot() - before;
    EXPECT_EQ(d[stats::Event::kCrqAppend], 0u) << "a kept slot crossed queues";
    EXPECT_EQ(a.segment_count(), 1u);
    EXPECT_EQ(b.segment_count(), 1u);
}

TEST(LscqTest, NoCas2OnAnyPath) {
    // The whole reason for the second backend: an LSCQ workout must finish
    // with a zero CAS2 count (cf. LCRQ, where CAS2 is the hot path).
    QueueOptions opt;
    opt.ring_order = 2;
    LscqQueue q(opt);
    stats::reset_all();
    const auto received = test::mpmc_exchange(q, 2, 2, 2'000);
    test::expect_exchange_valid(received, 2, 2'000);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kCas2], 0u);
    EXPECT_GT(snap[stats::Event::kFaa], 0u);
    EXPECT_GT(snap[stats::Event::kFetchOr], 0u) << "consumes must be fetch-or";
}

// --- kept slots: the list forms over each thread's slot cache -------------

template <typename Q>
struct KeptSlotList : ::testing::Test {};
using KeptSlotLists = ::testing::Types<LscqQueue, LwcqQueue>;
struct ListName {
    template <typename Q>
    static std::string GetName(int) {
        return Q::kName;
    }
};
TYPED_TEST_SUITE(KeptSlotList, KeptSlotLists, ListName);

// A slot kept in one life of a recycled segment is dead in the next, which
// is why the key is (segment, ordinal) and not the pointer alone.  One
// segment of two slots goes keep -> fill -> close -> drain -> retire ->
// pool -> reset -> append; its new life holds the appender's seed in slot
// 0, the very slot the helper kept in the old life (a fresh fq hands out 0
// first).  The helper's next enqueue must take slot 1 from fq: reusing the
// stale slot would overwrite the seed and publish index 0 twice.
TYPED_TEST(KeptSlotList, SlotKeptInAnEarlierLifeIsNeverUsed) {
    QueueOptions opt;
    opt.ring_order = 1;
    ASSERT_GT(opt.segment_pool_cap, 0u);
    TypeParam q(opt);

    // One helper thread throughout, so its cache stays its own.
    std::atomic<int> step{0};
    const auto await_step = [&](int n) {
        while (step.load() != n) std::this_thread::yield();
    };
    std::thread helper([&] {
        q.enqueue(1);  // slot 0, from fq
        EXPECT_EQ(q.dequeue().value_or(0), 1u);  // head == tail: keeps slot 0
        step.store(1);
        await_step(2);
        q.enqueue(7);  // into the recycled segment's new life
        step.store(3);
    });
    await_step(1);
    const void* recycled = nullptr;
    q.debug_census([&](auto& seg, std::uint64_t kept) {
        recycled = &seg;
        EXPECT_EQ(kept, 1u);
        EXPECT_EQ(seg.free_ring().debug_held(), 1u);
    });

    q.enqueue(2);  // slot 1, the last free one
    q.enqueue(3);  // full: close, append a segment seeded with 3
    EXPECT_EQ(q.dequeue().value_or(0), 2u);
    EXPECT_EQ(q.dequeue().value_or(0), 3u);  // drained: retired to the pool
    ASSERT_EQ(q.segment_pool().size(), 1u);
    q.enqueue(4);  // the slot this thread kept dequeuing 3
    q.enqueue(5);
    q.enqueue(6);  // full: the append pops, resets and seeds the old segment
    ASSERT_EQ(q.segment_pool().size(), 0u);
    EXPECT_EQ(q.segment_count(), 2u);

    const auto tail_of = [&] {
        const void* tail = nullptr;
        std::uint64_t in_aq = 0, in_fq = 0, kept = 0;
        q.debug_census([&](auto& seg, std::uint64_t k) {
            tail = &seg;
            in_aq = seg.allocated_ring().debug_held();
            in_fq = seg.free_ring().debug_held();
            kept = k;
        });
        EXPECT_EQ(tail, recycled) << "the pool must have handed the segment back";
        return std::array<std::uint64_t, 3>{in_aq, in_fq, kept};
    };
    EXPECT_EQ(tail_of(), (std::array<std::uint64_t, 3>{1, 1, 0}))
        << "the new life holds its seed and one free slot; the old life's "
           "kept slot counts for nothing";

    step.store(2);
    await_step(3);
    helper.join();
    EXPECT_EQ(tail_of(), (std::array<std::uint64_t, 3>{2, 0, 0}))
        << "the helper's enqueue must have taken its slot from fq";
    for (value_t v = 4; v <= 7; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
    test::expect_census_balances(q);
}

// After 4-thread mixed runs over small segments the quiescent list
// accounts for every slot of every live segment, and holds exactly the
// items not yet dequeued.  Pairs first: each thread's dequeue keeps the
// slot its next enqueue reuses, so the run never appends and ends with
// one kept slot per thread.  Then a run biased toward enqueues closes
// segments (some holding kept slots) and spans a backlog across them.
TYPED_TEST(KeptSlotList, QuiescentCensusAccountsForEverySlot) {
    QueueOptions opt;
    opt.ring_order = 3;
    TypeParam q(opt);
    constexpr int kThreads = 4;
    std::atomic<int> finished{0};
    test::run_threads(kThreads, [&](int id) {
        for (std::uint64_t i = 0; i < 20'000; ++i) {
            q.enqueue(test::tag(static_cast<unsigned>(id), i));
            EXPECT_TRUE(q.dequeue().has_value());
        }
        // No thread exits before all are done: an exited thread's id, and
        // with it the id's cache, would pass to a thread yet to start.
        finished.fetch_add(1);
        while (finished.load() < kThreads) std::this_thread::yield();
    });
    test::Census c = test::expect_census_balances(q);
    EXPECT_EQ(c.segments, 1u);
    EXPECT_EQ(c.items, 0u);
    EXPECT_EQ(c.kept, static_cast<std::uint64_t>(kThreads));

    std::atomic<std::uint64_t> live{0};
    test::run_threads(kThreads, [&](int id) {
        Xoshiro256 rng(0x6b1 + static_cast<std::uint64_t>(id));
        for (std::uint64_t i = 0; i < 4'000; ++i) {
            if (rng.bounded(8) < 5) {
                q.enqueue(test::tag(static_cast<unsigned>(id), i));
                live.fetch_add(1);
            } else if (q.dequeue().has_value()) {
                live.fetch_sub(1);
            }
        }
    });
    c = test::expect_census_balances(q);
    EXPECT_GT(c.segments, 2u) << "the backlog must span segments";
    EXPECT_EQ(c.items, live.load());
    while (q.dequeue().has_value()) live.fetch_sub(1);
    EXPECT_EQ(live.load(), 0u);
    EXPECT_EQ(test::expect_census_balances(q).items, 0u);
}

}  // namespace
}  // namespace lcrq
