// wCQ ring and value-queue pair (queues/wcq.hpp) plus the LwCQ list
// (queues/lwcq.hpp): fast-path parity with SCQ (cycle/safe/threshold),
// the helping slow path (publication, peer completion, commit/revert),
// the ablation knobs (patience, helping), and MPMC exchanges on the
// bounded queue and the unbounded list with hazard reclamation.
//
// Thread-kill coverage lives in test_injection_wcq.cpp; here every
// thread survives, so the slow path is driven explicitly through the
// debug hooks and through patience=0 contention.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lwcq.hpp"
#include "queues/wcq.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

// The wCQ portability claim matches SCQ's: helping metadata included,
// every hot-path RMW stays on one lock-free 64-bit word.
static_assert(sizeof(WcqRing<>::Entry) == 8);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(ConcurrentQueue<WcqQueue>);
static_assert(ConcurrentQueue<LwcqQueue>);
static_assert(ConcurrentQueue<LwcqNoReclaimQueue>);

TEST(WcqEntry, AtomicEntryIsLockFreeAtRuntime) {
    WcqRing<>::Entry e{0};
    EXPECT_TRUE(e.is_lock_free());
}

// --- fast path: ScqRing parity -------------------------------------------

TEST(WcqRing, FifoAcrossManyLaps) {
    WcqRing<> r(2);  // capacity 4, ring of 8 entries
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

TEST(WcqRing, EmptyRingAnswersEmptyViaThresholdFastPath) {
    WcqRing<> r(2);
    EXPECT_LT(r.threshold(), 0);
    const std::uint64_t h = r.head_index();
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_EQ(r.head_index(), h) << "fast-path EMPTY must not take a ticket";
}

TEST(WcqRing, EnqueueRearmsThresholdTo3nMinus1) {
    WcqRing<> r(2);  // n = 4
    ASSERT_EQ(r.enqueue(0), EnqueueResult::kOk);
    EXPECT_EQ(r.threshold(), 3 * 4 - 1);
    ASSERT_TRUE(r.dequeue().has_value());
    EXPECT_EQ(r.threshold(), 3 * 4 - 1);
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_LT(r.threshold(), 3 * 4 - 1);
}

TEST(WcqRing, SeededConstructionHoldsTheRange) {
    WcqRing<> r(3, 2, 7);  // seeds 2..6
    EXPECT_EQ(r.tail_index() - r.head_index(), 5u);
    for (std::uint64_t i = 2; i < 7; ++i) {
        ASSERT_EQ(r.dequeue().value_or(99), i);
    }
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(WcqRing, CloseRefusesEnqueuesButDrains) {
    WcqRing<> r(2);
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

TEST(WcqRing, StolenEnqueueTicketLeavesHoleDequeuersPass) {
    WcqRing<> r(3);
    ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);
    r.debug_take_enqueue_ticket();  // claimed, never published
    ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
    EXPECT_EQ(r.dequeue().value_or(0), 1u);
    EXPECT_EQ(r.dequeue().value_or(0), 2u);
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(WcqRing, ConcurrentIndexCirculation) {
    WcqRing<> r(4, 0, 16);  // seeded full: 16 indices circulate
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

// --- the helping slow path -----------------------------------------------

TEST(WcqRing, SlowEnqueueIsVisibleToFastDequeue) {
    WcqRing<> r(2);
    stats::reset_all();
    const auto res = r.debug_enqueue_slow(3);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(*res, EnqueueResult::kOk);
    EXPECT_EQ(r.pending_requests(), 0u) << "self-help must retire the request";
    EXPECT_GT(stats::global_snapshot()[stats::Event::kWcqSlowPath], 0u);
    EXPECT_EQ(r.dequeue().value_or(99), 3u);
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(WcqRing, SlowDequeueConsumesFastEnqueue) {
    WcqRing<> r(2);
    ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
    std::optional<std::uint64_t> out;
    ASSERT_TRUE(r.debug_dequeue_slow(out));
    EXPECT_EQ(out.value_or(99), 2u);
    EXPECT_EQ(r.pending_requests(), 0u);
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(WcqRing, SlowDequeueOnEmptyRingAnswersEmpty) {
    WcqRing<> r(2);
    std::optional<std::uint64_t> out{7};
    ASSERT_TRUE(r.debug_dequeue_slow(out));
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(r.pending_requests(), 0u);
}

TEST(WcqRing, SlowEnqueueOnClosedRingReportsClosed) {
    WcqRing<> r(2);
    r.close();
    const auto res = r.debug_enqueue_slow(1);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(*res, EnqueueResult::kClosed);
    EXPECT_EQ(r.pending_requests(), 0u);
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(WcqRing, SlowPathsInterleaveWithFastFifo) {
    WcqRing<> r(2);
    ASSERT_EQ(r.enqueue(0), EnqueueResult::kOk);
    ASSERT_EQ(*r.debug_enqueue_slow(1), EnqueueResult::kOk);
    ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
    ASSERT_EQ(*r.debug_enqueue_slow(3), EnqueueResult::kOk);
    for (std::uint64_t i = 0; i < 4; ++i) {
        if (i % 2 == 0) {
            ASSERT_EQ(r.dequeue().value_or(99), i);
        } else {
            std::optional<std::uint64_t> out;
            ASSERT_TRUE(r.debug_dequeue_slow(out));
            ASSERT_EQ(out.value_or(99), i);
        }
    }
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(WcqRing, SlowPathsSurviveManyLaps) {
    // Wrap the ring enough times that slow-path commits cross cycle
    // boundaries and reuse cells previous requests touched.
    WcqRing<> r(1);  // capacity 2, ring of 4
    for (std::uint64_t lap = 0; lap < 64; ++lap) {
        ASSERT_EQ(*r.debug_enqueue_slow(lap % 2), EnqueueResult::kOk);
        std::optional<std::uint64_t> out;
        ASSERT_TRUE(r.debug_dequeue_slow(out));
        ASSERT_EQ(out.value_or(99), lap % 2) << "lap " << lap;
    }
    EXPECT_EQ(r.pending_requests(), 0u);
}

TEST(WcqRing, ConcurrentSlowPathCirculation) {
    // All-slow contention: every operation publishes a request, so commits,
    // reverts, and peer helping race continuously.  Conservation holds.
    WcqRing<> r(3, 0, 8);  // capacity 8, seeded with 8 indices
    std::atomic<std::uint64_t> moves{0};
    test::run_threads(4, [&](int) {
        while (moves.load(std::memory_order_relaxed) < 20'000) {
            std::optional<std::uint64_t> idx;
            if (!r.debug_dequeue_slow(idx)) continue;  // slot collision
            if (!idx.has_value()) continue;
            ASSERT_LT(*idx, 8u);
            const auto res = r.debug_enqueue_slow(*idx);
            ASSERT_TRUE(res.has_value()) << "slot must be free again";
            ASSERT_EQ(*res, EnqueueResult::kOk);
            moves.fetch_add(1, std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(r.pending_requests(), 0u);
    std::vector<bool> seen(8, false);
    std::uint64_t count = 0;
    while (auto idx = r.dequeue()) {
        ASSERT_FALSE(seen[*idx]) << "index " << *idx << " duplicated";
        seen[*idx] = true;
        ++count;
    }
    EXPECT_EQ(count, 8u);
}

// --- the aq/fq value queue and the bounded registry queue ----------------

TEST(WcqValueQueue, RoundTripAndBackpressure) {
    Wcq<> q(2);  // capacity 4
    EXPECT_EQ(q.capacity(), 4u);
    for (value_t v = 10; v < 14; ++v) {
        ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    EXPECT_EQ(q.try_enqueue(99), EnqueueResult::kFull);
    EXPECT_EQ(q.dequeue().value_or(0), 10u);
    EXPECT_EQ(q.try_enqueue(14), EnqueueResult::kOk);
    for (value_t v = 11; v < 15; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(WcqValueQueue, CloseRecyclesTheUnpublishedSlot) {
    Wcq<> q(2);
    ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    q.close();
    EXPECT_TRUE(q.closed());
    for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(q.try_enqueue(50), EnqueueResult::kClosed);
    }
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(WcqQueueTest, MpmcExchangeLosesNothing) {
    QueueOptions opt;
    opt.bounded_order = 6;  // capacity 64: producers feel backpressure
    WcqQueue q(opt);
    const auto received = test::mpmc_exchange(q, 3, 3, 4'000);
    test::expect_exchange_valid(received, 3, 4'000);
}

TEST(WcqQueueTest, MpmcExchangeWithZeroPatienceForcesHelping) {
    // patience 0: any failed round publishes a request, so whenever the
    // scheduler produces contention the exchange runs through the helping
    // machinery.  (No counter assertion: on a 1-CPU host a lucky schedule
    // can serialize the threads; the deterministic slow-path counters are
    // asserted by the debug-hook tests above.)
    QueueOptions opt;
    opt.bounded_order = 3;  // capacity 8: constant contention
    opt.wcq_patience = 0;
    WcqQueue q(opt);
    const auto received = test::mpmc_exchange(q, 3, 3, 3'000);
    test::expect_exchange_valid(received, 3, 3'000);
}

TEST(WcqQueueTest, SelfHelpOnlyAblationStaysCorrectWhileAlive) {
    // helping=false turns off peer scans but not self-help: with no thread
    // kills the exchange must still be lossless.  (The progress difference
    // is only observable with a killed peer — test_injection_wcq.cpp.)
    QueueOptions opt;
    opt.bounded_order = 3;
    opt.wcq_patience = 0;
    opt.wcq_helping = false;
    WcqQueue q(opt);
    const auto received = test::mpmc_exchange(q, 3, 3, 3'000);
    test::expect_exchange_valid(received, 3, 3'000);
}

TEST(WcqQueueTest, NoCas2OnAnyPath) {
    // Same portability gate as SCQ: a wCQ workout, helping included, must
    // finish with a zero CAS2 count.
    QueueOptions opt;
    opt.bounded_order = 3;
    opt.wcq_patience = 0;
    WcqQueue q(opt);
    stats::reset_all();
    const auto received = test::mpmc_exchange(q, 2, 2, 2'000);
    test::expect_exchange_valid(received, 2, 2'000);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kCas2], 0u);
    EXPECT_GT(snap[stats::Event::kFaa], 0u);
}

// --- the LwCQ list --------------------------------------------------------

TEST(LwcqTest, FifoAcrossSegmentBoundaries) {
    QueueOptions opt;
    opt.ring_order = 2;  // segment capacity 4: constant turnover
    LwcqQueue q(opt);
    for (value_t v = 1; v <= 40; ++v) q.enqueue(v);
    EXPECT_GT(q.segment_count(), 1u) << "tiny segments must have split";
    for (value_t v = 1; v <= 40; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(LwcqTest, CloseIsAStickyBarrier) {
    LwcqQueue q;
    q.enqueue(1);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.try_enqueue(2));
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(LwcqTest, SegmentTurnoverReclaimsThroughHazards) {
    QueueOptions opt;
    opt.ring_order = 2;
    LwcqQueue q(opt);
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

TEST(LwcqTest, MpmcExchangeAllVariants) {
    QueueOptions opt;
    opt.ring_order = 2;
    {
        LwcqQueue q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
    {
        LwcqNoReclaimQueue q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
    {
        QueueOptions no_pool = opt;
        no_pool.segment_pool_cap = 0;
        LwcqQueue q(no_pool);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
}

TEST(LwcqTest, MpmcExchangeZeroPatienceTinySegments) {
    // Helping machinery racing segment turnover: requests published on a
    // segment that closes and drains mid-request must resolve (as items or
    // EMPTY) rather than strand, and the pool reset must scrub records.
    QueueOptions opt;
    opt.ring_order = 2;
    opt.wcq_patience = 0;
    LwcqQueue q(opt);
    test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
}

TEST(LwcqTest, ApproxSizeTracksOccupancyAcrossSegments) {
    QueueOptions opt;
    opt.ring_order = 2;
    LwcqQueue q(opt);
    EXPECT_EQ(q.approx_size(), 0u);
    for (value_t v = 1; v <= 10; ++v) q.enqueue(v);
    EXPECT_EQ(q.approx_size(), 10u);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_EQ(q.approx_size(), 0u);
}

}  // namespace
}  // namespace lcrq
