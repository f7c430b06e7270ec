// Combining constructions and the queues built on them: CC-Synch as a
// universal construction (on a plain sequential counter), CC-Queue,
// H-Synch/H-Queue with virtual clusters, and the flat-combining queue
// with its segmented sequential store.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "queues/combining.hpp"
#include "queues/fc_queue.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"

namespace lcrq {
namespace {

// --- CC-Synch as a universal construction -------------------------------

struct Counter {
    std::uint64_t value = 0;
};

void apply_counter(Counter& c, CombineRequest& req) {
    // enqueue-flagged requests add arg; others read.
    if (req.is_enqueue) {
        c.value += req.arg;
        req.result = c.value;
    } else {
        req.result = c.value;
    }
}

TEST(CcSynch, SerializesACounter) {
    Counter c;
    CcSynch<Counter, void (*)(Counter&, CombineRequest&)> synch(c, &apply_counter, 64);
    constexpr int kThreads = 4;
    constexpr int kAdds = 10'000;
    test::run_threads(kThreads, [&](int) {
        for (int i = 0; i < kAdds; ++i) {
            CombineRequest req;
            req.is_enqueue = true;
            req.arg = 1;
            synch.apply(req);
        }
    });
    EXPECT_EQ(c.value, static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(CcSynch, ReturnsPerOperationResults) {
    Counter c;
    CcSynch<Counter, void (*)(Counter&, CombineRequest&)> synch(c, &apply_counter, 8);
    CombineRequest add;
    add.is_enqueue = true;
    add.arg = 5;
    EXPECT_EQ(synch.apply(add), 5u);
    EXPECT_EQ(synch.apply(add), 10u);
    CombineRequest read;
    EXPECT_EQ(synch.apply(read), 10u);
}

TEST(CcSynch, BoundOneStillCorrect) {
    Counter c;
    CcSynch<Counter, void (*)(Counter&, CombineRequest&)> synch(c, &apply_counter, 1);
    test::run_threads(4, [&](int) {
        for (int i = 0; i < 2'000; ++i) {
            CombineRequest req;
            req.is_enqueue = true;
            req.arg = 1;
            synch.apply(req);
        }
    });
    EXPECT_EQ(c.value, 8'000u);
}

// --- CC-Queue ------------------------------------------------------------

TEST(CcQueue, FifoSingleThread) {
    CcQueue q;
    for (value_t v = 1; v <= 100; ++v) q.enqueue(v);
    for (value_t v = 1; v <= 100; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(CcQueue, ConcurrentExchange) {
    CcQueue q;
    auto received = test::mpmc_exchange(q, 3, 3, 1200);
    test::expect_exchange_valid(received, 3, 1200);
}

TEST(CcQueue, EnqueueAndDequeueSidesRunInParallel) {
    // Producers and consumers go through *different* combining instances;
    // heavy traffic on both must not corrupt the shared list.
    CcQueue q;
    auto received = test::mpmc_exchange(q, 4, 4, 800);
    test::expect_exchange_valid(received, 4, 800);
}

// --- H-Synch / H-Queue ---------------------------------------------------

TEST(HSynch, SerializesAcrossClusters) {
    Counter c;
    HSynch<Counter, void (*)(Counter&, CombineRequest&)> synch(c, &apply_counter, 16, 2);
    constexpr int kThreads = 4;
    constexpr int kAdds = 5'000;
    test::run_threads(kThreads, [&](int id) {
        topo::set_current_cluster(id % 2);
        for (int i = 0; i < kAdds; ++i) {
            CombineRequest req;
            req.is_enqueue = true;
            req.arg = 1;
            synch.apply(req);
        }
        topo::set_current_cluster(0);
    });
    EXPECT_EQ(c.value, static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(HQueue, FifoSingleThread) {
    QueueOptions opt;
    opt.clusters = 2;
    HQueue q(opt);
    EXPECT_EQ(q.clusters(), 2);
    for (value_t v = 1; v <= 100; ++v) q.enqueue(v);
    for (value_t v = 1; v <= 100; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(HQueue, ConcurrentExchangeTwoVirtualClusters) {
    QueueOptions opt;
    opt.clusters = 2;
    HQueue q(opt);
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

TEST(Combining, OnlyHSynchTakesAGuardAndOncePerPass) {
    // Every request is announced once and applied once; H-Synch's combiner
    // takes its global lock once per pass, CC-Synch's takes none.  How many
    // requests a pass batches depends on the interleaving, so it is not
    // asserted.
    constexpr std::uint64_t kOps = 4 * 20'000 * 2;
    const auto contended_pairs = [](auto& q) {
        const auto before = stats::global_snapshot();
        test::run_threads(4, [&](int id) {
            topo::set_current_cluster(id % 2);
            for (std::uint64_t i = 0; i < 20'000; ++i) {
                q.enqueue(test::tag(static_cast<unsigned>(id), i));
                // This thread's own enqueue precedes it: never EMPTY.
                EXPECT_TRUE(q.dequeue().has_value());
            }
            topo::set_current_cluster(0);
        });
        return stats::global_snapshot() - before;
    };

    CcQueue cc;
    const auto c = contended_pairs(cc);
    EXPECT_EQ(c[stats::Event::kSwap], kOps);
    EXPECT_EQ(c[stats::Event::kCombine], kOps);
    EXPECT_EQ(c[stats::Event::kTas], 0u);

    QueueOptions opt;
    opt.clusters = 2;
    HQueue h(opt);
    const auto d = contended_pairs(h);
    EXPECT_EQ(d[stats::Event::kSwap], kOps);
    EXPECT_EQ(d[stats::Event::kCombine], kOps);
    EXPECT_EQ(d[stats::Event::kTas], d[stats::Event::kCombinerAcquire]);
}

// --- Flat combining ------------------------------------------------------

TEST(SegmentedSeqQueue, FifoAcrossSegments) {
    SegmentedSeqQueue q;
    EXPECT_TRUE(q.empty());
    const std::uint64_t n = SegmentedSeqQueue::kSegCells * 3 + 17;
    for (std::uint64_t i = 0; i < n; ++i) q.push(i + 1);
    EXPECT_FALSE(q.empty());
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(q.pop().value_or(0), i + 1);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.pop().has_value());
}

TEST(SegmentedSeqQueue, InterleavedAcrossBoundaries) {
    SegmentedSeqQueue q;
    std::uint64_t in = 0, out = 0;
    for (int round = 0; round < 3000; ++round) {
        q.push(++in);
        q.push(++in);
        ASSERT_EQ(q.pop().value_or(0), ++out);
    }
    while (out < in) ASSERT_EQ(q.pop().value_or(0), ++out);
}

TEST(FcQueue, FifoSingleThread) {
    FcQueue q;
    for (value_t v = 1; v <= 100; ++v) q.enqueue(v);
    for (value_t v = 1; v <= 100; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(FcQueue, ConcurrentExchange) {
    FcQueue q;
    auto received = test::mpmc_exchange(q, 3, 3, 1200);
    test::expect_exchange_valid(received, 3, 1200);
}

TEST(FcQueue, ManyQueuesShareThreadRecordsSafely) {
    // Each queue instance has its own publication records; a thread using
    // two queues alternately must not cross wires.
    FcQueue a, b;
    test::run_threads(3, [&](int id) {
        for (int i = 0; i < 500; ++i) {
            a.enqueue(test::tag(static_cast<unsigned>(id), static_cast<std::uint64_t>(i) * 2));
            b.enqueue(test::tag(static_cast<unsigned>(id), static_cast<std::uint64_t>(i) * 2 + 1));
            ASSERT_TRUE(a.dequeue().has_value());
            ASSERT_TRUE(b.dequeue().has_value());
        }
    });
    EXPECT_FALSE(a.dequeue().has_value());
    EXPECT_FALSE(b.dequeue().has_value());
}

TEST(FcQueue, ShortLivedThreadWavesReuseRecords) {
    // Each wave's threads exit before the next wave starts, so their dense
    // ids, and the records in the queue's table with them, pass to the next
    // wave.  A pair's dequeue follows its own enqueue, so it never finds
    // the queue empty.
    constexpr int kWaves = 32;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPairs = 200;
    FcQueue q;
    std::vector<std::vector<value_t>> received(kWaves * kThreads);
    for (int wave = 0; wave < kWaves; ++wave) {
        test::run_threads(kThreads, [&](int id) {
            const int who = wave * kThreads + id;
            auto& mine = received[static_cast<std::size_t>(who)];
            for (std::uint64_t i = 0; i < kPairs; ++i) {
                q.enqueue(test::tag(static_cast<unsigned>(who), i));
                const auto v = q.dequeue();
                ASSERT_TRUE(v.has_value());
                mine.push_back(*v);
            }
        });
    }
    test::expect_exchange_valid(received, kWaves * kThreads, kPairs);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(FcQueue, KeepsNoPerThreadArrayInline) {
    // The records live in a ThreadTable, one pointer per thread id, not in
    // a kMaxThreads-long array of cache lines inside the queue.
    EXPECT_LE(sizeof(FcQueue), 8u * 1024);
}

}  // namespace
}  // namespace lcrq
