// LCRQ integration tests: unbounded growth over CRQ segments, the
// corrected dequeue path, hazard-pointer reclamation, and the evaluated
// variants (LCRQ-CAS, LCRQ+H, compact nodes).
#include <gtest/gtest.h>

#include <thread>

#include "queues/lcrq.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"

namespace lcrq {
namespace {

QueueOptions tiny() {
    QueueOptions opt;
    opt.ring_order = 2;  // R = 4: every few enqueues closes a segment
    opt.starvation_limit = 4;
    return opt;
}

TEST(Lcrq, FifoAcrossManySegments) {
    LcrqQueue q(tiny());
    constexpr value_t kN = 1000;
    for (value_t v = 1; v <= kN; ++v) q.enqueue(v);
    EXPECT_GT(q.segment_count(), 1u) << "tiny rings must have split the queue";
    for (value_t v = 1; v <= kN; ++v) {
        auto r = q.dequeue();
        ASSERT_TRUE(r.has_value());
        ASSERT_EQ(*r, v);
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Lcrq, InterleavedEnqueueDequeue) {
    LcrqQueue q(tiny());
    value_t next_in = 1;
    value_t next_out = 1;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 3; ++i) q.enqueue(next_in++);
        for (int i = 0; i < 2; ++i) ASSERT_EQ(q.dequeue().value_or(0), next_out++);
    }
    while (next_out < next_in) ASSERT_EQ(q.dequeue().value_or(0), next_out++);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Lcrq, EmptyThenReusable) {
    LcrqQueue q(tiny());
    EXPECT_FALSE(q.dequeue().has_value());
    q.enqueue(5);
    EXPECT_EQ(q.dequeue().value_or(0), 5u);
    EXPECT_FALSE(q.dequeue().has_value());
    q.enqueue(6);
    EXPECT_EQ(q.dequeue().value_or(0), 6u);
}

TEST(Lcrq, DrainedSegmentsAreReclaimed) {
    LcrqQueue q(tiny());
    // Push enough to create many segments, then drain from another thread
    // pattern to trigger head swings + retire.
    for (value_t v = 1; v <= 400; ++v) q.enqueue(v);
    const std::size_t grown = q.segment_count();
    EXPECT_GE(grown, 10u);
    for (value_t v = 1; v <= 400; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    // Head swung past the drained segments: the live list is short again.
    EXPECT_LE(q.segment_count(), 2u);
    // Retired segments are either freed already or parked in the domain —
    // after an explicit scan with no active operations, all must be freed.
    q.hazard_domain().scan();
    EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
}

TEST(Lcrq, ConcurrentExchangeTinySegments) {
    LcrqQueue q(tiny());
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kPer = 1500;
    auto received = test::mpmc_exchange(q, kProducers, kConsumers, kPer);
    test::expect_exchange_valid(received, kProducers, kPer);
}

TEST(Lcrq, ConcurrentExchangeLargeRing) {
    QueueOptions opt;
    opt.ring_order = 10;
    LcrqQueue q(opt);
    auto received = test::mpmc_exchange(q, 4, 2, 2500);
    test::expect_exchange_valid(received, 4, 2500);
}

TEST(LcrqCas, ConcurrentExchange) {
    LcrqCasQueue q(tiny());
    auto received = test::mpmc_exchange(q, 2, 2, 1500);
    test::expect_exchange_valid(received, 2, 1500);
}

TEST(LcrqH, ConcurrentExchangeWithClusters) {
    QueueOptions opt = tiny();
    opt.cluster_timeout_ns = 20'000;
    LcrqHQueue q(opt);
    // Emulate 2 clusters: half the threads publish cluster 1.
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPer = 800;
    std::atomic<std::uint64_t> consumed{0};
    std::vector<std::vector<value_t>> received(2);
    test::run_threads(kThreads, [&](int id) {
        topo::set_current_cluster(id % 2);
        if (id < 2) {
            for (std::uint64_t i = 0; i < kPer; ++i) {
                q.enqueue(test::tag(static_cast<unsigned>(id), i));
            }
        } else {
            auto& mine = received[static_cast<std::size_t>(id - 2)];
            while (consumed.load() < 2 * kPer) {
                if (auto v = q.dequeue()) {
                    mine.push_back(*v);
                    consumed.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        }
        topo::set_current_cluster(0);
    });
    test::expect_exchange_valid(received, 2, kPer);
}

TEST(LcrqCompact, ConcurrentExchange) {
    LcrqCompactQueue q(tiny());
    auto received = test::mpmc_exchange(q, 2, 2, 1500);
    test::expect_exchange_valid(received, 2, 1500);
}

TEST(Lcrq, ManyShortLivedQueues) {
    // Exercise construction/destruction with undrained items (destructor
    // must free the live segment chain).
    for (int i = 0; i < 50; ++i) {
        LcrqQueue q(tiny());
        for (value_t v = 1; v <= 30; ++v) q.enqueue(v);
        for (value_t v = 1; v <= 10; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    }
}

TEST(Lcrq, OversubscribedStress) {
    // More threads than this host has hardware threads: nonblocking
    // progress must hold under constant preemption.
    LcrqQueue q(tiny());
    auto received = test::mpmc_exchange(q, 6, 6, 400);
    test::expect_exchange_valid(received, 6, 400);
}

TEST(Lcrq, ApproxSizeAcrossSegments) {
    // approx_size may over-count a partially drained *closed* segment by
    // the enqueue tickets that failed there before it closed (bounded per
    // segment); it never under-counts when quiescent.
    LcrqQueue q(tiny());
    EXPECT_EQ(q.approx_size(), 0u);
    for (value_t v = 1; v <= 100; ++v) q.enqueue(v);
    const std::uint64_t slack = q.segment_count();
    EXPECT_GE(q.approx_size(), 100u);
    EXPECT_LE(q.approx_size(), 100u + slack);
    for (value_t v = 1; v <= 40; ++v) ASSERT_TRUE(q.dequeue().has_value());
    EXPECT_GE(q.approx_size(), 60u);
    EXPECT_LE(q.approx_size(), 60u + slack);
    while (q.dequeue().has_value()) {
    }
    EXPECT_EQ(q.approx_size(), 0u);
}

TEST(Lcrq, ApproxSizeDuringRetirementStress) {
    // approx_size walks the segment list under hazard protection, so it
    // must be safe to hammer concurrently with dequeue-driven segment
    // retirement (tiny rings retire constantly).  Run under ASan this is
    // the use-after-free probe for the protected walk; the value checks
    // are deliberately weak (it is an estimate), the liveness ones are not.
    LcrqQueue q(tiny());
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr int kObservers = 2;
    constexpr std::uint64_t kPer = 4'000;
    const std::uint64_t total = kProducers * kPer;
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<bool> done{false};

    test::run_threads(kProducers + kConsumers + kObservers, [&](int id) {
        if (id < kProducers) {
            for (std::uint64_t i = 0; i < kPer; ++i) {
                q.enqueue(test::tag(static_cast<unsigned>(id), i));
            }
        } else if (id < kProducers + kConsumers) {
            while (consumed.load(std::memory_order_acquire) < total) {
                if (q.dequeue()) {
                    consumed.fetch_add(1, std::memory_order_acq_rel);
                } else {
                    std::this_thread::yield();
                }
            }
            done.store(true, std::memory_order_release);
        } else {
            // do-while: on a 1-CPU host the consumers can finish before an
            // observer is ever scheduled, so at least one walk is forced
            // (over a drained queue it still exercises the protected walk).
            std::uint64_t walks = 0;
            do {
                const std::uint64_t size = q.approx_size();
                const std::size_t segments = q.segment_count();
                ASSERT_GE(segments, 1u);
                // Over-count is bounded by wasted enqueue tickets (< R per
                // closed segment) plus in-flight items.
                ASSERT_LE(size, total + 4 * segments);
                ++walks;
            } while (!done.load(std::memory_order_acquire));
            EXPECT_GT(walks, 0u);
        }
    });
    EXPECT_EQ(q.approx_size(), 0u);
}

TEST(LcrqNoReclaim, FifoAndLeakUntilDestruction) {
    LcrqNoReclaimQueue q(tiny());
    for (value_t v = 1; v <= 300; ++v) q.enqueue(v);
    for (value_t v = 1; v <= 300; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
    // Drained rings are intentionally NOT reclaimed: the live list shrank
    // (head swung) but the destructor frees the whole chain (ASan-checked).
    EXPECT_LE(q.segment_count(), 2u);
}

TEST(LcrqNoReclaim, ConcurrentExchange) {
    LcrqNoReclaimQueue q(tiny());
    auto received = test::mpmc_exchange(q, 2, 2, 1000);
    test::expect_exchange_valid(received, 2, 1000);
}

}  // namespace
}  // namespace lcrq
