// wCQ ring (queues/wcq.hpp) plus the LwCQ list (queues/lwcq.hpp): the
// helping slow path (publication, peer completion, commit/revert), the
// ablation knobs (patience, helping), and MPMC exchanges on the bounded
// queue and the unbounded list with hazard reclamation.  What wCQ shares
// with SCQ — the ticket core's FIFO/threshold/close behaviour and the
// aq/fq value queue — runs as typed suites in test_scq.cpp; the fast path
// is checked here against ScqRing's, op for op.
//
// Thread-kill coverage lives in test_injection_wcq.cpp; here every
// thread survives, so the slow path is driven explicitly through the
// debug hooks and through patience=0 contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "queues/lwcq.hpp"
#include "queues/scq.hpp"
#include "queues/wcq.hpp"
#include "test_support.hpp"
#include "util/xorshift.hpp"

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

// --- the fast path --------------------------------------------------------

// With patience out of reach a wCQ ring never publishes a request, so it
// must run SCQ's fast path op for op: the same answers, the same head,
// tail, threshold and held indices, and the same atomics per operation,
// except that wCQ consumes with a CAS where SCQ stamps ⊥ with a fetch-or.
// One thread drives both rings through a seeded script of enqueues (at
// most n indices out), dequeues, stolen enqueue tickets and a late close.
// Unsafe transitions need an enqueuer lapped mid-operation, which one
// thread cannot produce; the explorer and the injection suites cover them.
TEST(WcqRing, FastPathMatchesScqRingOpForOp) {
    using stats::Event;
    enum class Op { kEnqueue, kDequeue, kSteal, kClose };
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    // One op on one ring: its answer and the events it counted.
    const auto run = [](auto& ring, Op op, std::uint64_t idx) {
        const stats::Snapshot before = stats::global_snapshot();
        std::uint64_t answer = 0;
        switch (op) {
            case Op::kEnqueue:
                answer = static_cast<std::uint64_t>(ring.enqueue(idx));
                break;
            case Op::kDequeue: answer = ring.dequeue().value_or(kEmpty); break;
            case Op::kSteal: answer = ring.debug_take_enqueue_ticket(); break;
            case Op::kClose: ring.close(); break;
        }
        return std::pair{answer, stats::global_snapshot() - before};
    };

    constexpr int kOps = 4'000;
    stats::Snapshot scq_total;
    std::uint64_t empties = 0;
    std::uint64_t closed_enqueues = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ScqRing<> scq(3);
        WcqRing<> wcq(3, 0, 0, WcqConfig{1u << 30, true});
        Xoshiro256 rng(seed);
        std::vector<std::uint64_t> out_of_ring;  // indices free to enqueue
        for (std::uint64_t i = 0; i < scq.capacity(); ++i) out_of_ring.push_back(i);
        const int close_at = kOps / 2 + static_cast<int>(rng.bounded(kOps / 2));
        for (int i = 0; i < kOps; ++i) {
            const std::uint64_t pick = rng.bounded(20);
            Op op = pick < 19 ? Op::kDequeue : Op::kSteal;
            std::uint64_t idx = 0;
            if (i == close_at) {
                op = Op::kClose;
            } else if (pick < 9 && !out_of_ring.empty()) {
                op = Op::kEnqueue;
                const std::size_t k = rng.bounded(out_of_ring.size());
                idx = out_of_ring[k];
                out_of_ring.erase(out_of_ring.begin() + static_cast<std::ptrdiff_t>(k));
            }
            const auto [scq_answer, scq_events] = run(scq, op, idx);
            const auto [wcq_answer, wcq_events] = run(wcq, op, idx);
            const auto where = [&] {
                return ::testing::Message() << "seed " << seed << ", op " << i;
            };
            ASSERT_EQ(scq_answer, wcq_answer) << where();
            ASSERT_EQ(scq.head_index(), wcq.head_index()) << where();
            ASSERT_EQ(scq.tail_index(), wcq.tail_index()) << where();
            ASSERT_EQ(scq.threshold(), wcq.threshold()) << where();
            ASSERT_EQ(scq.debug_held(), wcq.debug_held()) << where();
            for (const Event e : {Event::kFaa, Event::kCasFailure, Event::kRingRetry,
                                  Event::kEmptyTransition, Event::kUnsafeTransition,
                                  Event::kTas}) {
                ASSERT_EQ(scq_events[e], wcq_events[e])
                    << stats::event_name(e) << ", " << where();
            }
            ASSERT_EQ(scq_events[Event::kFetchOr] + scq_events[Event::kCas],
                      wcq_events[Event::kCas])
                << "SCQ's fetch-or consume is wCQ's CAS consume, " << where();
            ASSERT_EQ(wcq_events[Event::kWcqSlowPath], 0u) << where();
            scq_total += scq_events;

            if (op == Op::kEnqueue &&
                scq_answer != static_cast<std::uint64_t>(EnqueueResult::kOk)) {
                out_of_ring.push_back(idx);
                ++closed_enqueues;
            } else if (op == Op::kDequeue && scq_answer == kEmpty) {
                ++empties;
            } else if (op == Op::kDequeue) {
                out_of_ring.push_back(scq_answer);
            }
        }
    }
    // The script reaches every path it claims to compare.
    EXPECT_GT(scq_total[Event::kFetchOr], 0u) << "no consume";
    EXPECT_GT(scq_total[Event::kEmptyTransition], 0u);
    EXPECT_GT(scq_total[Event::kRingRetry], 0u);
    EXPECT_GT(empties, 0u);
    EXPECT_GT(closed_enqueues, 0u);
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

TEST(WcqRing, HelpRecordsArePackedAndSpread) {
    // The 64 help records cost the ring their 24 B each plus at most two
    // line pairs of alignment, not a padded line pair each (8 KiB a ring).
    EXPECT_LE(sizeof(WcqRing<>) - sizeof(ScqRing<>),
              kWcqSlots * 3 * sizeof(std::uint64_t) + 2 * kDestructivePairSize);

    // Packed, they still keep concurrent slow paths apart: the records of
    // slots 0-7 (the first 8 thread ids) touch 8 disjoint line pairs.
    WcqRing<> r(3);
    std::set<std::uintptr_t> pairs;
    std::size_t touched = 0;
    for (std::size_t s = 0; s < 8; ++s) {
        const auto first = reinterpret_cast<std::uintptr_t>(r.debug_record_address(s));
        const auto last = first + 3 * sizeof(std::uint64_t) - 1;
        for (auto p = first / kDestructivePairSize; p <= last / kDestructivePairSize;
             ++p) {
            pairs.insert(p);
            ++touched;
        }
    }
    EXPECT_EQ(touched, 8u) << "a record of slots 0-7 straddles two line pairs";
    EXPECT_EQ(pairs.size(), 8u) << "two of slots 0-7 share a line pair";
}

// --- the bounded registry queue --------------------------------------------

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
    EXPECT_EQ(q.try_enqueue(2), EnqueueResult::kClosed);
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
    // The unprotected list runs the same helping code over segments it
    // never recycles.
    QueueOptions opt;
    opt.ring_order = 2;
    opt.wcq_patience = 0;
    {
        LwcqQueue q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
    {
        LwcqNoReclaimQueue q(opt);
        test::expect_exchange_valid(test::mpmc_exchange(q, 3, 3, 3'000), 3, 3'000);
    }
}

TEST(LwcqTest, KeptSlotsSurviveForcedHelping) {
    // Pairs over tiny segments with zero patience, so a kept slot's
    // publish falls back to the helping slow path after one failed round,
    // and segments turn over while threads keep slots.  Nothing is lost,
    // duplicated or reordered, and the quiescent list accounts for every
    // slot of every live segment.
    QueueOptions opt;
    opt.ring_order = 2;
    opt.wcq_patience = 0;
    LwcqQueue q(opt);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 3'000;
    std::vector<std::vector<value_t>> received(kThreads);
    std::atomic<int> finished{0};
    test::run_threads(kThreads, [&](int id) {
        auto& mine = received[static_cast<std::size_t>(id)];
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            q.enqueue(test::tag(static_cast<unsigned>(id), i));
            // Every third round enqueues twice, so segments fill and close.
            if (i % 3 == 0 && ++i < kPerThread) {
                q.enqueue(test::tag(static_cast<unsigned>(id), i));
            }
            if (auto v = q.dequeue()) mine.push_back(*v);
        }
        finished.fetch_add(1);  // ids stay distinct until every thread is done
        while (finished.load() < kThreads) std::this_thread::yield();
    });
    const test::Census c = test::expect_census_balances(q);
    EXPECT_LE(c.kept, static_cast<std::uint64_t>(kThreads));
    while (auto v = q.dequeue()) received[0].push_back(*v);
    test::expect_exchange_valid(received, kThreads, kPerThread);
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
