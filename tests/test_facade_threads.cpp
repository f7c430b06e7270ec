// The blocking and coroutine facades' multi-threaded cases over LscqQueue
// and over the registry shape UniquePtrBase<AnyQueue> (a catalog lscq),
// plus the registry's bounded rings behind the facade.  The eventcount
// handshake, frame parking and close() are the same code over every base;
// none of these bases runs cmpxchg16b, so this binary is the one the tsan
// build row can instrument (the LCRQ instantiations live in
// test_shutdown_and_blocking and test_async_queue).
#include <chrono>

#include "facade_thread_cases.hpp"
#include "queues/lscq.hpp"

namespace lcrq::test {

using RegistryBase = UniquePtrBase<AnyQueue>;

INSTANTIATE_TYPED_TEST_SUITE_P(Lscq, BlockingThreads, LscqQueue);
INSTANTIATE_TYPED_TEST_SUITE_P(Lscq, AsyncThreads, LscqQueue);
INSTANTIATE_TYPED_TEST_SUITE_P(Registry, BlockingThreads, RegistryBase);
INSTANTIATE_TYPED_TEST_SUITE_P(Registry, AsyncThreads, RegistryBase);

namespace {

TEST(RegistryBoundedFacade, FullRingRefusesAtOnceAndADequeueWakesAWaitingProducer) {
    // Regression: AnyQueue had no try_enqueue, so the facade admitted
    // through the adapter's enqueue, which spins while a bounded ring is
    // full.  The fifth admission into a 4-slot ring must be refused at
    // once; the helper frees a slot after 200 ms so that a spinning
    // admission returns (true) instead of hanging the test.
    for (const char* name : {"scq", "wcq", "bounded-mpmc"}) {
        SCOPED_TRACE(name);
        QueueOptions opt;
        opt.bounded_order = 2;  // ring capacity 4
        BlockingQueue<RegistryBase> q(RegistryBase(make_queue(name, opt)));
        for (value_t v = 1; v <= 4; ++v) ASSERT_TRUE(q.try_enqueue(v));
        std::thread helper([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            EXPECT_EQ(q.try_dequeue().value_or(0), 1u);
        });
        const std::uint64_t t0 = now_ns();
        const bool admitted = q.try_enqueue(5);
        const std::uint64_t elapsed = now_ns() - t0;
        helper.join();
        EXPECT_FALSE(admitted) << "a full ring must refuse, not spin";
        EXPECT_LT(elapsed, 100'000'000u) << "the refusal waited " << elapsed << " ns";

        // Full again; a producer waiting for space gets in once a dequeue
        // frees a slot, although the facade itself is unbounded.
        if (!admitted) {
            ASSERT_TRUE(q.try_enqueue(5));
        }
        std::thread consumer([&] {
            spin_for_ns(2'000'000);
            EXPECT_EQ(q.try_dequeue().value_or(0), 2u);
        });
        EXPECT_EQ(q.wait_enqueue_for(6, 5'000'000'000), WaitStatus::kOk);
        consumer.join();
        for (value_t v = 3; v <= 6; ++v) EXPECT_EQ(q.try_dequeue().value_or(0), v);
        EXPECT_FALSE(q.try_dequeue().has_value());
    }
}

}  // namespace
}  // namespace lcrq::test
