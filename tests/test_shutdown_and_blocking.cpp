// LCRQ graceful shutdown (close / try_enqueue) and the blocking facade.
// The facade's multi-threaded cases live in facade_thread_cases.hpp,
// shared with the LSCQ instantiation the tsan build row runs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "facade_thread_cases.hpp"
#include "queues/blocking_queue.hpp"
#include "queues/lcrq.hpp"
#include "queues/scq.hpp"
#include "registry/queue_registry.hpp"
#include "test_support.hpp"
#include "util/timing.hpp"

namespace lcrq {
namespace {

QueueOptions tiny() {
    QueueOptions opt;
    opt.ring_order = 2;
    opt.starvation_limit = 4;
    return opt;
}

TEST(LcrqShutdown, CloseStopsNewEnqueues) {
    LcrqQueue q(tiny());
    EXPECT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    EXPECT_EQ(q.try_enqueue(2), EnqueueResult::kOk);
    EXPECT_FALSE(q.closed());
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.try_enqueue(3), EnqueueResult::kClosed);
    // Pre-close items drain in order; then EMPTY forever.
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_EQ(q.dequeue().value_or(0), 2u);
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.try_enqueue(4), EnqueueResult::kClosed);
}

TEST(LcrqShutdown, CloseOnEmptyQueue) {
    LcrqQueue q(tiny());
    q.close();
    EXPECT_EQ(q.try_enqueue(1), EnqueueResult::kClosed);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(LcrqShutdown, CloseIsIdempotent) {
    LcrqQueue q(tiny());
    q.try_enqueue(9);
    q.close();
    q.close();
    EXPECT_EQ(q.dequeue().value_or(0), 9u);
}

TEST(LcrqShutdown, CloseAcrossManySegments) {
    LcrqQueue q(tiny());
    for (value_t v = 1; v <= 200; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    q.close();
    for (value_t v = 1; v <= 200; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(LcrqShutdown, ConcurrentCloseNothingLostOrLate) {
    // Producers hammer try_enqueue while one thread closes; every accepted
    // item must drain, and after close() returns, no acceptance.
    for (int round = 0; round < 10; ++round) {
        LcrqQueue q(tiny());
        std::atomic<std::uint64_t> accepted{0};
        std::atomic<bool> closed_seen{false};
        test::run_threads(4, [&](int id) {
            if (id == 0) {
                volatile int spin = 0;
                while (spin < 2000) spin = spin + 1;
                q.close();
                closed_seen.store(true, std::memory_order_release);
            } else {
                for (int i = 0; i < 2'000; ++i) {
                    if (q.try_enqueue(test::tag(static_cast<unsigned>(id),
                                                static_cast<std::uint64_t>(i))) ==
                        EnqueueResult::kOk) {
                        accepted.fetch_add(1, std::memory_order_relaxed);
                    } else {
                        break;  // closed: all later attempts must also fail
                    }
                }
            }
        });
        // A try_enqueue starting now must fail.
        EXPECT_EQ(q.try_enqueue(12345), EnqueueResult::kClosed);
        std::uint64_t drained = 0;
        while (q.dequeue().has_value()) ++drained;
        EXPECT_EQ(drained, accepted.load()) << "round " << round;
    }
}

TEST(BlockingQueue, BaseClosedDirectlyEnqueueRefusesInsteadOfLosing) {
    // Regression: admission used to call the asserting base_.enqueue() —
    // closing the *base* queue via base().close() (bypassing the facade's
    // flag) silently lost the item in release builds and aborted in debug.
    // It must route through try_enqueue and propagate the refusal.
    BlockingQueue<> q;
    EXPECT_TRUE(q.try_enqueue(1));
    q.base().close();
    EXPECT_FALSE(q.closed()) << "facade flag untouched by base().close()";
    EXPECT_FALSE(q.try_enqueue(2)) << "base refused; facade must report it";
    // The pre-close item is still there, and nothing after it.
    EXPECT_EQ(q.try_dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.try_dequeue().has_value());
}

TEST(BlockingQueue, TryDequeueNeverBlocks) {
    BlockingQueue<> q;
    EXPECT_FALSE(q.try_dequeue().has_value());
    q.try_enqueue(7);
    EXPECT_EQ(q.try_dequeue().value_or(0), 7u);
}

TEST(BlockingQueue, DrainsBeforeReportingClosed) {
    BlockingQueue<> q;
    for (value_t v = 1; v <= 10; ++v) EXPECT_TRUE(q.try_enqueue(v));
    q.close();
    for (value_t v = 1; v <= 10; ++v) {
        const auto r = q.wait_dequeue();
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(*r, v);
    }
    EXPECT_FALSE(q.wait_dequeue().has_value());
}

TEST(BlockingQueue, WaitForTimesOutWhenIdle) {
    BlockingQueue<> q;
    const auto t0 = now_ns();
    const WaitResult r = q.wait_dequeue_for(3'000'000);  // 3 ms
    const auto elapsed = now_ns() - t0;
    EXPECT_TRUE(r.timed_out()) << "idle open queue: timeout, not closed";
    EXPECT_GE(elapsed, 2'000'000u) << "returned before the deadline";
}

TEST(BlockingQueue, WaitForReturnsEarlyWithItem) {
    BlockingQueue<> q;
    q.try_enqueue(9);
    const auto t0 = now_ns();
    const WaitResult r = q.wait_dequeue_for(1'000'000'000);  // 1 s budget
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, 9u);
    EXPECT_LT(now_ns() - t0, 500'000'000u) << "did not return promptly";
}

TEST(BlockingQueue, WaitForAfterCloseDrainsThenClosed) {
    BlockingQueue<> q;
    q.try_enqueue(5);
    q.close();
    const WaitResult first = q.wait_dequeue_for(1'000'000);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value, 5u);
    // Regression: the old API returned nullopt for both "timed out" and
    // "closed and drained"; the tri-state must say closed here.
    const WaitResult second = q.wait_dequeue_for(1'000'000);
    EXPECT_TRUE(second.closed());
    EXPECT_FALSE(second.timed_out());
}

TEST(BlockingQueue, WaitForSleepsInsteadOfSpinning) {
    // CPU-time witness for the busy-wait bugfix: the old wait_dequeue_for
    // spin/yielded to the deadline, so a 200 ms idle wait burned ~200 ms
    // of CPU.  The futex-backed wait must burn only a small fraction.
    BlockingQueue<> q;
    constexpr std::uint64_t kWaitNs = 200'000'000;  // 200 ms
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t t0 = now_ns();
    const WaitResult r = q.wait_dequeue_for(kWaitNs);
    const std::uint64_t wall = now_ns() - t0;
    const std::uint64_t cpu = thread_cpu_ns() - cpu0;
    EXPECT_TRUE(r.timed_out());
    ASSERT_GE(wall, kWaitNs - 1'000'000) << "deadline not honored";
    // The old implementation burned ~100% of wall as CPU; the sliced futex
    // wait costs a 25 us spin window per slice plus ~20 wakeups.  Even on a
    // loaded CI host, a quarter of the wall budget is an order of
    // magnitude above what sleeping costs and far below what spinning did.
    EXPECT_LT(cpu, wall / 4) << "wait_dequeue_for burned CPU like a spin loop";
}

TEST(BlockingQueue, BoundedTryEnqueueShedsAtWatermark) {
    BlockingQueue<> q(QueueOptions{}, /*capacity=*/8);
    for (value_t v = 1; v <= 8; ++v) {
        EXPECT_TRUE(q.try_enqueue(v)) << "under capacity";
    }
    EXPECT_FALSE(q.try_enqueue(9)) << "watermark reached: shed";
    EXPECT_EQ(q.try_dequeue().value_or(0), 1u);
    EXPECT_TRUE(q.try_enqueue(9)) << "space freed: accepted again";
}

// Admission refuses at exactly capacity on both of its paths.  At 8 every
// check sums the tallies (the fast check's slack is at least one fold
// batch, 64); at 10,000 the fast check admits until the slack and the
// exact sum decides the rest.  After k dequeues exactly k more get in,
// with k on both sides of a fold boundary.
TEST(BlockingQueue, RefusesAtExactlyCapacityOnBothAdmissionPaths) {
    for (const std::size_t capacity : {std::size_t{8}, std::size_t{10'000}}) {
        SCOPED_TRACE(capacity);
        BlockingQueue<> q(QueueOptions{}, capacity);
        value_t next = 1;
        while (next <= 2 * capacity && q.try_enqueue(next)) ++next;
        ASSERT_EQ(next - 1, capacity);
        EXPECT_EQ(q.approx_size(), capacity);
        value_t expect = 1;
        for (const std::size_t k : {1, 3, 8, 63, 64, 65, 200}) {
            if (k > capacity) continue;
            SCOPED_TRACE(k);
            for (std::size_t i = 0; i < k; ++i) {
                ASSERT_EQ(q.try_dequeue().value_or(0), expect++);
            }
            for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(q.try_enqueue(next++));
            EXPECT_FALSE(q.try_enqueue(next)) << "admitted past capacity";
            EXPECT_EQ(q.approx_size(), capacity);
        }
    }
}

// A tally folds into the shared estimate once per 64 counts.  Churning
// 10^5 admit/dequeue pairs over a standing depth of 37 crosses the fold
// boundaries of both tallies at different phases, and a second thread's
// dequeues fold into the estimate from a tally that admitted nothing: the
// size stays exact, and so does the refusal point.
TEST(BlockingQueue, FoldBoundaryChurnKeepsTheSizeExact) {
    constexpr std::size_t kCapacity = 10'000;
    constexpr value_t kDepth = 37;
    BlockingQueue<> q(QueueOptions{}, kCapacity);
    for (value_t v = 1; v <= kDepth; ++v) ASSERT_TRUE(q.try_enqueue(v));
    value_t next = kDepth + 1;
    for (int i = 0; i < 100'000; ++i) {
        ASSERT_TRUE(q.try_enqueue(next++));
        ASSERT_TRUE(q.try_dequeue().has_value());
        ASSERT_EQ(q.approx_size(), kDepth) << "after pair " << i;
    }
    for (value_t more = 0; more <= kCapacity && q.try_enqueue(next); ++more) ++next;
    ASSERT_EQ(q.approx_size(), kCapacity);

    constexpr std::size_t kTaken = 5'000;
    std::thread consumer([&] {
        for (std::size_t i = 0; i < kTaken; ++i) ASSERT_TRUE(q.try_dequeue().has_value());
    });
    consumer.join();
    EXPECT_EQ(q.approx_size(), kCapacity - kTaken);
    for (std::size_t i = 0; i < kTaken; ++i) ASSERT_TRUE(q.try_enqueue(next++));
    EXPECT_FALSE(q.try_enqueue(next)) << "admitted past capacity";
    EXPECT_EQ(q.approx_size(), kCapacity);
}

// Over 100 segments of R = 4 the watermark counts admits, not segments:
// at capacity 401 the 401st admit gets in and the 402nd is refused, and
// the facade's tally sum and the base's own O(1) estimate (head and tail
// estimates plus R per segment between them) both read 401.
TEST(BlockingQueue, WatermarkIsExactOverAHundredSegments) {
    BlockingQueue<LcrqQueue> q(tiny(), /*capacity=*/401);  // R = 4
    for (value_t v = 1; v <= 400; ++v) ASSERT_TRUE(q.try_enqueue(v));
    ASSERT_EQ(q.base().segment_count(), 100u);
    EXPECT_TRUE(q.try_enqueue(401));
    EXPECT_FALSE(q.try_enqueue(402)) << "admitted past capacity";
    EXPECT_EQ(q.approx_size(), 401u);
    EXPECT_EQ(q.base().approx_size(), 401u);
}

TEST(BlockingQueue, WaitEnqueueTimesOutWhenFull) {
    BlockingQueue<> q(QueueOptions{}, /*capacity=*/2);
    ASSERT_TRUE(q.try_enqueue(1));
    ASSERT_TRUE(q.try_enqueue(2));
    const auto t0 = now_ns();
    EXPECT_EQ(q.wait_enqueue_for(3, 3'000'000), WaitStatus::kTimeout);
    EXPECT_GE(now_ns() - t0, 2'000'000u);
    q.close();
    EXPECT_EQ(q.wait_enqueue_for(4, 1'000'000), WaitStatus::kClosed);
}

TEST(BlockingQueue, DrainDeliversRemainderAndReportsComplete) {
    BlockingQueue<> q;
    for (value_t v = 1; v <= 50; ++v) ASSERT_TRUE(q.try_enqueue(v));
    std::vector<value_t> got;
    const DrainReport rep =
        q.drain(1'000'000'000, [&](value_t v) { got.push_back(v); });
    EXPECT_TRUE(q.closed()) << "drain closes an open queue";
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.drained, 50u);
    EXPECT_EQ(rep.stragglers, 0u);
    ASSERT_EQ(got.size(), 50u);
    for (value_t v = 1; v <= 50; ++v) EXPECT_EQ(got[v - 1], v);
}

TEST(BlockingQueue, DrainOnEmptyClosedQueueIsComplete) {
    BlockingQueue<> q;
    q.close();
    const DrainReport rep = q.drain(100'000'000);
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.drained, 0u);
}

TEST(BlockingQueue, ComposesOverRegistryBackend) {
    // The production shape: facade over a runtime-selected backend.  The
    // watermark runs on the facade's own tallies, as for every base.
    auto base = make_queue("lscq");
    ASSERT_NE(base, nullptr);
    BlockingQueue<UniquePtrBase<AnyQueue>> q(
        UniquePtrBase<AnyQueue>(std::move(base)), /*capacity=*/4);
    for (value_t v = 1; v <= 4; ++v) EXPECT_TRUE(q.try_enqueue(v));
    EXPECT_EQ(q.approx_size(), 4u);
    EXPECT_FALSE(q.try_enqueue(5)) << "facade-side watermark must shed";
    EXPECT_EQ(q.try_dequeue().value_or(0), 1u);
    EXPECT_TRUE(q.try_enqueue(5));
    q.close();
    for (value_t v = 2; v <= 5; ++v) {
        EXPECT_EQ(q.wait_dequeue_for(100'000'000).value, v);
    }
    EXPECT_TRUE(q.wait_dequeue_for(1'000'000).closed());
}

TEST(BlockingQueue, BoundedBaseFullIsRetryableNotClosed) {
    // Regression: a full bounded base ring used to read as closed, so
    // wait_enqueue_for reported kClosed ("retrying cannot succeed") for a
    // transiently full *open* queue and producers gave up instead of
    // blocking for space.
    QueueOptions opt;
    opt.bounded_order = 2;  // ring capacity 4
    BlockingQueue<ScqQueue> q(opt);
    while (q.try_enqueue(7)) {
    }
    EXPECT_FALSE(q.closed());
    EXPECT_EQ(q.wait_enqueue_for(8, 1'000'000), WaitStatus::kTimeout)
        << "full open queue must time out, not report closed";
    // A dequeue frees a slot and must signal the space eventcount even
    // though the facade itself is unbounded (capacity() == 0).
    std::thread consumer([&] {
        spin_for_ns(2'000'000);
        EXPECT_TRUE(q.try_dequeue().has_value());
    });
    EXPECT_EQ(q.wait_enqueue(9), WaitStatus::kOk);
    consumer.join();
}

TEST(BlockingQueue, BoundedBaseClosedDirectlyReportsClosed) {
    // The ring's own kClosed keeps the final refusal final: closing the
    // inner ring via base().base().close() must not read as retryable full.
    QueueOptions opt;
    opt.bounded_order = 2;
    BlockingQueue<ScqQueue> q(opt);
    ASSERT_TRUE(q.try_enqueue(1));
    q.base().base().close();
    EXPECT_EQ(q.wait_enqueue_for(2, 1'000'000), WaitStatus::kClosed);
    EXPECT_FALSE(q.try_enqueue(3));
    EXPECT_EQ(q.try_dequeue().value_or(0), 1u) << "pre-close item still drains";
}

TEST(BlockingQueue, DrainDeadlineHoldsAgainstSlowSink) {
    // Regression: drain() only consulted the clock after an EMPTY round, so
    // a backlog fed to a slow sink overran the deadline by the whole
    // backlog (50 items x 2 ms here = 100 ms against a 10 ms deadline).
    BlockingQueue<> q;
    for (value_t v = 1; v <= 50; ++v) ASSERT_TRUE(q.try_enqueue(v));
    const std::uint64_t start = now_ns();
    const DrainReport rep =
        q.drain(10'000'000, [](value_t) { spin_for_ns(2'000'000); });
    const std::uint64_t elapsed = now_ns() - start;
    EXPECT_FALSE(rep.complete);
    EXPECT_LT(rep.drained, 50u);
    EXPECT_GT(rep.stragglers, 0u);
    EXPECT_LT(elapsed, 60'000'000u) << "deadline overrun: " << elapsed << " ns";
}

TEST(BlockingQueue, ShedAndBlockCountersFire) {
    stats::reset_all();
    BlockingQueue<> q(QueueOptions{}, /*capacity=*/1);
    ASSERT_TRUE(q.try_enqueue(1));
    EXPECT_FALSE(q.try_enqueue(2));
    EXPECT_EQ(q.wait_enqueue_for(3, 1'000'000), WaitStatus::kTimeout);
    const stats::Snapshot s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kShed], 2u) << "watermark refusal + bounded timeout";
    EXPECT_EQ(s[stats::Event::kBlockedEnq], 1u) << "the bounded wait registered";
}

// Witnesses that idle facade traffic writes nothing a sleeper does not
// need.  Single-threaded, so the counts are exact.

TEST(BlockingQueue, AdmitsWithNoWaiterLeaveTheItemsEpochAlone) {
    BlockingQueue<> q;
    const std::uint32_t before = q.items_epoch();
    for (value_t v = 1; v <= 1000; ++v) ASSERT_TRUE(q.try_enqueue(v));
    EXPECT_EQ(q.items_epoch(), before) << "an admit bumped with no waiter registered";
}

TEST(BlockingQueue, DequeuesWithNoParkedProducerLeaveTheSpaceEpochAlone) {
    BlockingQueue<> q(QueueOptions{}, /*capacity=*/4096);
    for (value_t v = 1; v <= 1000; ++v) ASSERT_TRUE(q.try_enqueue(v));
    const std::uint32_t before = q.space_epoch();
    for (value_t v = 1; v <= 1000; ++v) ASSERT_EQ(q.try_dequeue().value_or(0), v);
    EXPECT_EQ(q.space_epoch(), before) << "a dequeue bumped with no producer parked";
}

// A facade over a registry queue, where the adapter counts every real
// dequeue (and every EMPTY one) while the peek counts nothing.
BlockingQueue<UniquePtrBase<AnyQueue>> registry_facade(const char* name,
                                                       std::size_t capacity = 0) {
    return BlockingQueue<UniquePtrBase<AnyQueue>>(
        UniquePtrBase<AnyQueue>(make_queue(name)), capacity);
}

TEST(BlockingQueue, IdleWaitPeeksInsteadOfPolling) {
    auto q = registry_facade("lcrq");
    stats::reset_all();
    const WaitResult r = q.wait_dequeue_for(2'000'000);  // 2 ms, nobody enqueues
    EXPECT_TRUE(r.timed_out());
    const stats::Snapshot s = stats::global_snapshot();
    // One before the window, one re-check before the sleep, one after it.
    EXPECT_LE(s[stats::Event::kDequeueEmpty], 3u) << "the spin window polled for real";
    EXPECT_EQ(s[stats::Event::kBlockedDeq], 1u);
}

TEST(BlockingQueue, ZeroOrPastDeadlineStillMakesOneRealDequeue) {
    auto q = registry_facade("lcrq");
    stats::reset_all();
    EXPECT_TRUE(q.wait_dequeue_for(0).timed_out());
    EXPECT_TRUE(q.wait_dequeue_until(0).timed_out());  // long past
    const stats::Snapshot s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kDequeueEmpty], 2u) << "one real attempt per call";
    EXPECT_EQ(s[stats::Event::kBlockedDeq], 0u) << "no time left, so no park";
    ASSERT_TRUE(q.try_enqueue(5));
    const WaitResult r = q.wait_dequeue_for(0);
    ASSERT_TRUE(r.ok()) << "a ready item must be delivered at a zero deadline";
    EXPECT_EQ(r.value, 5u);
}

TEST(BlockingQueue, BoundedRegistryFacadeUnderBackpressureLosesNothing) {
    // Capacity 4 and a consumer slower than its producer keep the watermark
    // hit: the producer rides wait_enqueue_for (100 us), and a refusal is a
    // timeout, never a lost or duplicated item.
    constexpr std::uint64_t kOffered = 2000;
    auto q = registry_facade("lscq", /*capacity=*/4);
    std::vector<value_t> admitted, received;
    std::uint64_t refused = 0;
    std::thread consumer([&] {
        while (auto v = q.wait_dequeue()) {
            received.push_back(*v);
            spin_for_ns(1'000);  // service time
        }
    });
    for (value_t v = 1; v <= kOffered; ++v) {
        const WaitStatus s = q.wait_enqueue_for(v, 100'000);
        if (s == WaitStatus::kOk) {
            admitted.push_back(v);
        } else {
            EXPECT_EQ(s, WaitStatus::kTimeout);
            ++refused;
        }
    }
    q.close();
    consumer.join();
    EXPECT_EQ(admitted.size() + refused, kOffered);
    EXPECT_FALSE(admitted.empty());
    EXPECT_EQ(received, admitted) << "admitted items must arrive exactly once, in order";
}

}  // namespace
}  // namespace lcrq

namespace lcrq::test {
INSTANTIATE_TYPED_TEST_SUITE_P(Lcrq, BlockingThreads, LcrqQueue);
// Instantiated over LcrqQueue in test_async_queue.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(AsyncThreads);
}  // namespace lcrq::test
