// CRQ unit tests: the tantrum-queue semantics of §4.1 — ring wraparound,
// the four node transitions, closing, fixState, and concurrent stress on
// tiny rings where every corner case fires constantly.
#include <gtest/gtest.h>

#include <thread>

#include "queues/crq.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

QueueOptions small_ring(unsigned order) {
    QueueOptions opt;
    opt.ring_order = order;
    return opt;
}

TEST(Crq, FifoSingleThread) {
    Crq<> q(small_ring(4));
    for (value_t v = 1; v <= 10; ++v) {
        ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    for (value_t v = 1; v <= 10; ++v) {
        auto r = q.dequeue();
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(*r, v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Crq, EmptyOnFreshQueue) {
    Crq<> q(small_ring(4));
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_FALSE(q.dequeue().has_value());
    // fixState restored head <= tail, so enqueues still work.
    EXPECT_EQ(q.try_enqueue(42), EnqueueResult::kOk);
    EXPECT_EQ(q.dequeue().value_or(0), 42u);
}

TEST(Crq, WrapsAroundManyLaps) {
    Crq<> q(small_ring(2));  // R = 4
    for (int lap = 0; lap < 100; ++lap) {
        for (value_t v = 1; v <= 3; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
        for (value_t v = 1; v <= 3; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_FALSE(q.closed());
}

TEST(Crq, ClosesWhenFull) {
    Crq<> q(small_ring(2));  // R = 4
    int stored = 0;
    EnqueueResult r = EnqueueResult::kOk;
    for (int i = 0; i < 16 && r == EnqueueResult::kOk; ++i) {
        r = q.try_enqueue(static_cast<value_t>(i + 1));
        if (r == EnqueueResult::kOk) ++stored;
    }
    EXPECT_EQ(r, EnqueueResult::kClosed);
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(stored, 4);
    // Tantrum semantics: closed forever.
    EXPECT_EQ(q.try_enqueue(99), EnqueueResult::kClosed);
    // Items stored before the close drain in FIFO order.
    for (value_t v = 1; v <= 4; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Crq, ExplicitCloseIsIdempotent) {
    Crq<> q(small_ring(4));
    ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    q.close();
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.try_enqueue(2), EnqueueResult::kClosed);
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Crq, SeededConstructorContainsItem) {
    Crq<> q(small_ring(4), value_t{77});
    EXPECT_EQ(q.dequeue().value_or(0), 77u);
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.try_enqueue(5), EnqueueResult::kOk);
    EXPECT_EQ(q.dequeue().value_or(0), 5u);
}

TEST(Crq, FixStateRestoresHeadTail) {
    Crq<> q(small_ring(4));
    // Overshoot head with empty dequeues.
    for (int i = 0; i < 10; ++i) EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_LE(q.head_index(), q.tail_index());
    // The ring is still fully usable.
    for (value_t v = 1; v <= 16; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    for (value_t v = 1; v <= 16; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
}

TEST(Crq, SpinWaitDisabledStillCorrect) {
    QueueOptions opt = small_ring(3);
    opt.spin_wait_iters = 0;
    Crq<> q(opt);
    for (value_t v = 1; v <= 5; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    for (value_t v = 1; v <= 5; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
}

TEST(Crq, CasLoopFaaVariant) {
    Crq<CasLoopFaa> q(small_ring(4));
    for (value_t v = 1; v <= 12; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    for (value_t v = 1; v <= 12; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
}

TEST(Crq, CompactNodesVariant) {
    Crq<HardwareFaa, false> q(small_ring(4));
    for (value_t v = 1; v <= 12; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    for (value_t v = 1; v <= 12; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
}

// Concurrent producers + consumers on one CRQ.  The CRQ is a *tantrum*
// queue: under dequeuer pressure an enqueue may legitimately give up and
// close the ring (starving(), Fig. 3d line 98), so producers track their
// successes and the test verifies the successful set round-trips intact.
TEST(Crq, ConcurrentExchangeTantrumAware) {
    QueueOptions opt = small_ring(12);  // R = 4096 >> in-flight items
    opt.starvation_limit = 1'000'000;   // make spurious closes unlikely
    Crq<> q(opt);
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kPer = 2000;

    std::vector<std::vector<value_t>> sent(kProducers);
    std::vector<std::vector<value_t>> received(kConsumers);
    std::atomic<std::uint64_t> succeeded{0};
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<int> producers_left{kProducers};

    test::run_threads(kProducers + kConsumers, [&](int id) {
        if (id < kProducers) {
            auto& mine = sent[static_cast<std::size_t>(id)];
            for (std::uint64_t i = 0; i < kPer; ++i) {
                const value_t v = test::tag(static_cast<unsigned>(id), i);
                if (q.try_enqueue(v) == EnqueueResult::kOk) {
                    mine.push_back(v);
                    succeeded.fetch_add(1, std::memory_order_acq_rel);
                } else {
                    break;  // ring closed: no later enqueue can succeed
                }
            }
            producers_left.fetch_sub(1, std::memory_order_acq_rel);
        } else {
            auto& mine = received[static_cast<std::size_t>(id - kProducers)];
            for (;;) {
                if (auto v = q.dequeue()) {
                    mine.push_back(*v);
                    consumed.fetch_add(1, std::memory_order_acq_rel);
                    continue;
                }
                if (producers_left.load(std::memory_order_acquire) == 0 &&
                    consumed.load() >= succeeded.load()) {
                    break;
                }
                std::this_thread::yield();
            }
        }
    });

    // Every successful enqueue is dequeued exactly once.
    std::vector<value_t> all_sent, all_received;
    for (const auto& s : sent) all_sent.insert(all_sent.end(), s.begin(), s.end());
    for (const auto& r : received) {
        all_received.insert(all_received.end(), r.begin(), r.end());
    }
    std::sort(all_sent.begin(), all_sent.end());
    std::sort(all_received.begin(), all_received.end());
    EXPECT_EQ(all_sent, all_received);
    // And per-producer FIFO holds per consumer among the successes.
    test::expect_exchange_valid_partial(received, kProducers);
}

// Concurrent enqueue-only on a tiny ring: the ring must close rather than
// lose items or wedge, and exactly the pre-close items must drain.
TEST(Crq, ConcurrentEnqueueTinyRingCloses) {
    Crq<> q(small_ring(2));  // R = 4
    std::atomic<int> stored{0};
    test::run_threads(4, [&](int id) {
        for (int i = 0; i < 50; ++i) {
            if (q.try_enqueue(test::tag(static_cast<unsigned>(id),
                                        static_cast<std::uint64_t>(i))) ==
                EnqueueResult::kOk) {
                stored.fetch_add(1);
            }
        }
    });
    EXPECT_TRUE(q.closed());
    int drained = 0;
    while (q.dequeue().has_value()) ++drained;
    EXPECT_EQ(drained, stored.load());
    EXPECT_LE(drained, 4);
}

// Dequeuers racing enqueuers on a tiny ring exercise the unsafe/empty
// transitions heavily; nothing may be lost among the values that were
// successfully enqueued.
TEST(Crq, ConcurrentTinyRingTransitions) {
    for (int round = 0; round < 10; ++round) {
        Crq<> q(small_ring(2));
        std::atomic<std::uint64_t> enqueued{0};
        std::atomic<std::uint64_t> dequeued{0};
        std::atomic<int> producers_left{2};

        test::run_threads(4, [&](int id) {
            if (id < 2) {
                for (int i = 0; i < 200; ++i) {
                    if (q.try_enqueue(test::tag(static_cast<unsigned>(id),
                                                static_cast<std::uint64_t>(i))) ==
                        EnqueueResult::kOk) {
                        enqueued.fetch_add(1);
                    }
                }
                producers_left.fetch_sub(1, std::memory_order_acq_rel);
            } else {
                for (;;) {
                    if (q.dequeue().has_value()) {
                        dequeued.fetch_add(1, std::memory_order_acq_rel);
                        continue;
                    }
                    if (producers_left.load(std::memory_order_acquire) == 0 &&
                        dequeued.load() >= enqueued.load()) {
                        break;
                    }
                    std::this_thread::yield();
                }
            }
        });
        EXPECT_EQ(dequeued.load(), enqueued.load());
    }
}

TEST(Crq, IndicesAreMonotonic) {
    Crq<> q(small_ring(4));
    const auto h0 = q.head_index();
    const auto t0 = q.tail_index();
    ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    EXPECT_GT(q.tail_index(), t0);
    ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_GT(q.head_index(), h0);
}

TEST(Crq, RingSizeReported) {
    EXPECT_EQ(Crq<>(small_ring(5)).ring_size(), 32u);
    EXPECT_EQ(Crq<>(small_ring(1)).ring_size(), 2u);
}

TEST(Crq, ApproxSizeTracksQuiescentCount) {
    Crq<> q(small_ring(4));
    EXPECT_EQ(q.approx_size(), 0u);
    for (value_t v = 1; v <= 10; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    EXPECT_EQ(q.approx_size(), 10u);
    for (value_t v = 1; v <= 4; ++v) ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_EQ(q.approx_size(), 6u);
    while (q.dequeue().has_value()) {
    }
    EXPECT_EQ(q.approx_size(), 0u);
}

TEST(Crq, ApproxSizeNeverNegativeAfterOvershoot) {
    Crq<> q(small_ring(4));
    for (int i = 0; i < 5; ++i) EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.approx_size(), 0u);  // clamped, and fixState repaired tail
}

}  // namespace
}  // namespace lcrq
