// The two array-queue bookends: the bounded CAS-ticket ring and the
// Figure 2 infinite-array queue.
#include <gtest/gtest.h>

#include "queues/bounded_mpmc_queue.hpp"
#include "queues/infinite_array_queue.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

QueueOptions cap(unsigned order) {
    QueueOptions opt;
    opt.bounded_order = order;
    return opt;
}

TEST(BoundedMpmc, FifoSingleThread) {
    BoundedMpmcQueue q(cap(4));
    EXPECT_EQ(q.capacity(), 16u);
    for (value_t v = 1; v <= 16; ++v) EXPECT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    EXPECT_EQ(q.try_enqueue(99), EnqueueResult::kFull) << "ring must report full";
    for (value_t v = 1; v <= 16; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(BoundedMpmc, WrapsManyLaps) {
    BoundedMpmcQueue q(cap(2));
    for (int lap = 0; lap < 200; ++lap) {
        for (value_t v = 1; v <= 3; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
        for (value_t v = 1; v <= 3; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    }
}

TEST(BoundedMpmc, FullThenDrainThenReusable) {
    BoundedMpmcQueue q(cap(2));
    for (value_t v = 1; v <= 4; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    ASSERT_EQ(q.try_enqueue(5), EnqueueResult::kFull);
    ASSERT_EQ(q.dequeue().value_or(0), 1u);
    ASSERT_EQ(q.try_enqueue(5), EnqueueResult::kOk);
    for (value_t v = 2; v <= 5; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
}

TEST(BoundedMpmc, ConcurrentExchange) {
    BoundedMpmcQueue q(cap(10));
    auto received = test::mpmc_exchange(q, 3, 3, 1200);
    test::expect_exchange_valid(received, 3, 1200);
}

TEST(InfiniteArray, FifoSingleThread) {
    InfiniteArrayQueue q;
    for (value_t v = 1; v <= 100; ++v) q.enqueue(v);
    for (value_t v = 1; v <= 100; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(InfiniteArray, EmptyDequeuePoisonsCellButQueueRecovers) {
    InfiniteArrayQueue q;
    EXPECT_FALSE(q.dequeue().has_value());
    // The poisoned cell forces the next enqueue to a later index; FIFO
    // still holds for everything that is enqueued.
    q.enqueue(1);
    q.enqueue(2);
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_EQ(q.dequeue().value_or(0), 2u);
}

TEST(InfiniteArray, IndicesNeverDecrease) {
    InfiniteArrayQueue q;
    const auto t0 = q.tail_index();
    q.enqueue(1);
    EXPECT_GT(q.tail_index(), t0);
    const auto h0 = q.head_index();
    ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_GT(q.head_index(), h0);
}

TEST(InfiniteArray, CrossesSegmentBoundary) {
    InfiniteArrayQueue q;
    const std::uint64_t n = InfiniteArrayQueue::kSegCells + 100;
    // Interleave so live items stay few while indices cross into the
    // second lazily-allocated segment.
    for (std::uint64_t i = 0; i < n; ++i) {
        q.enqueue(i + 1);
        ASSERT_EQ(q.dequeue().value_or(0), i + 1);
    }
}

TEST(InfiniteArray, ConcurrentExchange) {
    InfiniteArrayQueue q;
    auto received = test::mpmc_exchange(q, 2, 2, 1000);
    test::expect_exchange_valid(received, 2, 1000);
}

}  // namespace
}  // namespace lcrq
