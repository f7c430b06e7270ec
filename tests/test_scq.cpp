// SCQ ring and value-queue pair (queues/scq.hpp) plus the LSCQ list
// (queues/lscq.hpp): the single-word entry invariant the backend exists
// for, ring FIFO/wrap/threshold behaviour, the aq/fq slot-recycling
// discipline, closed-segment semantics, and MPMC exchanges on both the
// bounded queue and the unbounded list (with hazard reclamation).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lscq.hpp"
#include "queues/scq.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

// The reason SCQ is here at all: every hot-path RMW is on one lock-free
// 64-bit word.  If Entry ever grows past 8 bytes or loses lock-freedom,
// the backend has silently reacquired CRQ's cmpxchg16b dependence.
static_assert(sizeof(ScqRing<>::Entry) == 8);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(BulkConcurrentQueue<ScqQueue>);
static_assert(BulkConcurrentQueue<LscqQueue>);
static_assert(BulkConcurrentQueue<LscqCasQueue>);
static_assert(BulkConcurrentQueue<LscqNoReclaimQueue>);

TEST(ScqEntry, AtomicEntryIsLockFreeAtRuntime) {
    ScqRing<>::Entry e{0};
    EXPECT_TRUE(e.is_lock_free()) << "SCQ's portability claim needs a "
                                     "lock-free single-word entry";
}

// --- raw ring ------------------------------------------------------------

TEST(ScqRing, FifoAcrossManyLaps) {
    ScqRing<> r(2);  // capacity 4, ring of 8 entries
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

TEST(ScqRing, EmptyRingAnswersEmptyViaThresholdFastPath) {
    ScqRing<> r(2);
    // A fresh unseeded ring starts with threshold -1: the first dequeue
    // answers EMPTY from one load, without burning a head ticket.
    EXPECT_LT(r.threshold(), 0);
    const std::uint64_t h = r.head_index();
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_EQ(r.head_index(), h) << "fast-path EMPTY must not take a ticket";
}

TEST(ScqRing, EnqueueRearmsThresholdTo3nMinus1) {
    ScqRing<> r(2);  // n = 4
    ASSERT_EQ(r.enqueue(0), EnqueueResult::kOk);
    EXPECT_EQ(r.threshold(), 3 * 4 - 1);
    // Draining decrements it only on failed tickets; the consume itself
    // leaves the bound alone.
    ASSERT_TRUE(r.dequeue().has_value());
    EXPECT_EQ(r.threshold(), 3 * 4 - 1);
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_LT(r.threshold(), 3 * 4 - 1);
}

TEST(ScqRing, SeededConstructionHoldsTheRange) {
    ScqRing<> r(3, 2, 7);  // seeds 2..6
    EXPECT_EQ(r.tail_index() - r.head_index(), 5u);
    for (std::uint64_t i = 2; i < 7; ++i) {
        ASSERT_EQ(r.dequeue().value_or(99), i);
    }
    EXPECT_FALSE(r.dequeue().has_value());
}

TEST(ScqRing, CloseRefusesEnqueuesButDrains) {
    ScqRing<> r(2);
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

TEST(ScqRing, StolenEnqueueTicketLeavesHoleDequeuersPass) {
    ScqRing<> r(3);
    ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);
    r.debug_take_enqueue_ticket();  // claimed, never published
    ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
    EXPECT_EQ(r.dequeue().value_or(0), 1u);
    // The dequeuer at the hole performs an empty transition and moves on.
    EXPECT_EQ(r.dequeue().value_or(0), 2u);
    EXPECT_FALSE(r.dequeue().has_value());
}

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

TEST(ScqRing, ConcurrentIndexCirculation) {
    // Indices 0..n-1 circulate through the ring under contention — the fq
    // duty cycle.  Conservation: each index in flight exactly once.
    ScqRing<> r(4, 0, 16);  // seeded full: 16 indices
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

// --- the aq/fq value queue ----------------------------------------------

TEST(ScqValueQueue, RoundTripAndBackpressure) {
    Scq<> q(2);  // capacity 4
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

TEST(ScqValueQueue, SeededConstructionMatchesLscqAppend) {
    Scq<> q(2, 42);
    EXPECT_EQ(q.approx_size(), 1u);
    EXPECT_EQ(q.dequeue().value_or(0), 42u);
    EXPECT_FALSE(q.dequeue().has_value());
    // The seeded slot returned to the free list: full capacity available.
    for (value_t v = 1; v <= 4; ++v) {
        ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    EXPECT_EQ(q.try_enqueue(5), EnqueueResult::kFull);
}

TEST(ScqValueQueue, CloseRecyclesTheUnpublishedSlot) {
    Scq<> q(2);
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
    EXPECT_FALSE(q.try_enqueue(2));
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
        LscqCasQueue q(opt);
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

}  // namespace
}  // namespace lcrq
