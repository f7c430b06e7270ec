// AsyncQueue: co_await-able enqueue/dequeue over the blocking facade.
//
// Resumption threading: a parked coroutine frame resumes on whichever
// thread signalled (an admission, a dequeue freeing space, or close, from
// a frame or through blocking()), so everything a frame touches after a
// suspension point is atomics-only.  The multi-threaded cases live in
// facade_thread_cases.hpp, shared with the instantiations the tsan build
// row runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "facade_thread_cases.hpp"
#include "queues/async_queue.hpp"
#include "queues/lcrq.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

using test::facade_tiny;

Task<std::uint64_t> forty_two() { co_return 42u; }

Task<std::uint64_t> add_one(Task<std::uint64_t> inner) {
    const std::uint64_t v = co_await std::move(inner);
    co_return v + 1;
}

TEST(AsyncTask, SyncWaitDrivesLazyTask) {
    EXPECT_EQ(sync_wait(forty_two()), 42u);
}

TEST(AsyncTask, TasksComposeBySymmetricTransfer) {
    EXPECT_EQ(sync_wait(add_one(add_one(forty_two()))), 44u);
}

TEST(AsyncQueue, DequeueCompletesWithoutParkingWhenItemReady) {
    AsyncQueue<> q(facade_tiny());
    ASSERT_TRUE(q.blocking().try_enqueue(7));
    const auto v = sync_wait(q.dequeue());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7u);
}

TEST(AsyncQueue, AwaitEnqueueThenAwaitDequeueRoundtrip) {
    AsyncQueue<> q(facade_tiny());
    EXPECT_TRUE(sync_wait(q.enqueue(11)));
    EXPECT_TRUE(sync_wait(q.enqueue(12)));
    EXPECT_EQ(sync_wait(q.dequeue()).value_or(0), 11u);
    EXPECT_EQ(sync_wait(q.dequeue()).value_or(0), 12u);
}

TEST(AsyncQueue, EnqueueReturnsFalseAfterClose) {
    AsyncQueue<> q(facade_tiny());
    q.close();
    EXPECT_FALSE(sync_wait(q.enqueue(5)));
}

TEST(AsyncQueue, DequeueDrainsPrecloseItemsThenNullopt) {
    AsyncQueue<> q(facade_tiny());
    for (value_t v = 1; v <= 20; ++v) ASSERT_TRUE(q.blocking().try_enqueue(v));
    q.close();
    for (value_t v = 1; v <= 20; ++v) {
        EXPECT_EQ(sync_wait(q.dequeue()).value_or(0), v);
    }
    EXPECT_FALSE(sync_wait(q.dequeue()).has_value());
}

TEST(AsyncQueue, IdleAsyncTrafficLeavesBothEpochsAlone) {
    // With no frame or thread registered, a signal is a fence and a load:
    // async admissions and dequeues, like blocking ones, bump neither
    // epoch.  (The coroutine layer used to bump its side's epoch on every
    // operation, parked frame or not.)  Bounded, so dequeues signal the
    // space side too.
    AsyncQueue<> q(facade_tiny(), /*capacity=*/4096);
    BlockingQueue<LcrqQueue>& bq = q.blocking();
    const std::uint32_t items0 = bq.items_epoch();
    const std::uint32_t space0 = bq.space_epoch();
    for (value_t v = 1; v <= 1000; ++v) ASSERT_TRUE(sync_wait(q.enqueue(v)));
    for (value_t v = 1; v <= 1000; ++v) ASSERT_EQ(sync_wait(q.dequeue()).value_or(0), v);
    EXPECT_EQ(bq.items_epoch(), items0) << "an async admit bumped with no waiter registered";
    EXPECT_EQ(bq.space_epoch(), space0) << "an async dequeue bumped with no waiter registered";
}
}  // namespace
}  // namespace lcrq

namespace lcrq::test {
INSTANTIATE_TYPED_TEST_SUITE_P(Lcrq, AsyncThreads, LcrqQueue);
// Instantiated over LcrqQueue in test_shutdown_and_blocking.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(BlockingThreads);
}  // namespace lcrq::test
