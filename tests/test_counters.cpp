// Software event-counter tests: per-thread accumulation, aggregation
// across live and exited threads (whose blocks pass with their thread ids),
// snapshots concurrent with counting and with threads starting and
// exiting, reset, and snapshot arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "test_support.hpp"

namespace lcrq::stats {
namespace {

TEST(Counters, CountAndSnapshot) {
    reset_all();
    count(Event::kFaa);
    count(Event::kFaa);
    count(Event::kCas, 5);
    const Snapshot s = global_snapshot();
    EXPECT_EQ(s[Event::kFaa], 2u);
    EXPECT_EQ(s[Event::kCas], 5u);
    EXPECT_EQ(s[Event::kSwap], 0u);
}

TEST(Counters, SnapshotDifference) {
    reset_all();
    count(Event::kEnqueue, 10);
    const Snapshot before = global_snapshot();
    count(Event::kEnqueue, 7);
    const Snapshot delta = global_snapshot() - before;
    EXPECT_EQ(delta[Event::kEnqueue], 7u);
}

TEST(Counters, SumAcrossThreads) {
    reset_all();
    lcrq::test::run_threads(4, [](int) {
        for (int i = 0; i < 100; ++i) count(Event::kCas2);
    });
    // Exited threads' counts persist: their blocks outlive them.
    EXPECT_EQ(global_snapshot()[Event::kCas2], 400u);
}

TEST(Counters, ResetClearsEverything) {
    count(Event::kTas, 3);
    reset_all();
    EXPECT_EQ(global_snapshot()[Event::kTas], 0u);
}

TEST(Counters, AtomicOpsRollup) {
    reset_all();
    count(Event::kFaa, 2);
    count(Event::kSwap, 3);
    count(Event::kTas, 4);
    count(Event::kCas, 5);
    count(Event::kCas2, 6);
    count(Event::kCasFailure, 99);  // failures are not extra instructions
    EXPECT_EQ(global_snapshot().atomic_ops(), 2u + 3 + 4 + 5 + 6);
}

TEST(Counters, OperationsRollup) {
    reset_all();
    count(Event::kEnqueue, 8);
    count(Event::kDequeue, 9);
    EXPECT_EQ(global_snapshot().operations(), 17u);
}

TEST(Counters, EventNamesAreUniqueAndNonEmpty) {
    for (std::size_t i = 0; i < kEventCount; ++i) {
        const auto n1 = event_name(static_cast<Event>(i));
        EXPECT_FALSE(n1.empty());
        for (std::size_t j = i + 1; j < kEventCount; ++j) {
            EXPECT_NE(n1, event_name(static_cast<Event>(j)));
        }
    }
}

TEST(Counters, SnapshotPlusEquals) {
    Snapshot a;
    a[Event::kFaa] = 3;
    Snapshot b;
    b[Event::kFaa] = 4;
    b[Event::kCas] = 1;
    a += b;
    EXPECT_EQ(a[Event::kFaa], 7u);
    EXPECT_EQ(a[Event::kCas], 1u);
}

TEST(Counters, ThreadsDoNotShareBlocks) {
    reset_all();
    // Two live threads bump different events; totals must not interleave
    // incorrectly (each block is thread-private until aggregation).
    lcrq::test::run_threads(2, [](int id) {
        for (int i = 0; i < 1'000; ++i) {
            count(id == 0 ? Event::kFaa : Event::kSwap);
        }
    });
    const Snapshot s = global_snapshot();
    EXPECT_EQ(s[Event::kFaa], 1'000u);
    EXPECT_EQ(s[Event::kSwap], 1'000u);
}

TEST(Counters, ManyWavesAccumulateOnRecycledBlocks) {
    reset_all();
    for (int wave = 0; wave < 10; ++wave) {
        lcrq::test::run_threads(4, [](int) { count(Event::kTas, 5); });
    }
    EXPECT_EQ(global_snapshot()[Event::kTas], 10u * 4 * 5);
}

TEST(Counters, LiveSnapshotWhileOwnersIncrement) {
    // global_snapshot() reads other threads' slots while their owners keep
    // incrementing.  The slots are relaxed atomics (single writer), so the
    // snapshot must be a defined read — this test runs in the TSan matrix to
    // prove it — and every mid-run total must be a plausible partial sum:
    // non-decreasing and never above the final total.
    reset_all();
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 50'000;
    std::atomic<int> done{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) count(Event::kFaa);
            done.fetch_add(1, std::memory_order_release);
        });
    }
    std::uint64_t last = 0;
    while (done.load(std::memory_order_acquire) < kThreads) {
        const std::uint64_t now = global_snapshot()[Event::kFaa];
        EXPECT_GE(now, last);
        EXPECT_LE(now, kThreads * kPerThread);
        last = now;
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(global_snapshot()[Event::kFaa], kThreads * kPerThread);
}

TEST(Counters, SnapshotWhileThreadsStartCountAndExit) {
    // Waves of short-lived threads count and exit while the main thread
    // snapshots.  Wave w runs w + 1 threads that stay until all of them
    // have counted, so each wave holds one thread id more than the last:
    // it reuses the blocks earlier threads left, and once past the ids
    // earlier tests used it makes a block above the high-water mark.
    // Both must be defined reads (TSan matrix), and no count may drop out
    // or appear twice on the way, so mid-run totals never decrease and
    // the final total is exact.
    reset_all();
    constexpr int kWaves = 16;
    constexpr std::uint64_t kPerThread = 1'000;
    constexpr std::uint64_t kTotal = kWaves * (kWaves + 1) / 2 * kPerThread;
    std::atomic<bool> done{false};
    std::thread churn([&] {
        for (int wave = 0; wave < kWaves; ++wave) {
            const int n = wave + 1;
            std::atomic<int> counted{0};
            std::vector<std::thread> ts;
            ts.reserve(static_cast<std::size_t>(n));
            for (int t = 0; t < n; ++t) {
                ts.emplace_back([&] {
                    for (std::uint64_t i = 0; i < kPerThread; ++i) count(Event::kSwap);
                    counted.fetch_add(1);
                    while (counted.load() < n) std::this_thread::yield();
                });
            }
            for (auto& t : ts) t.join();
        }
        done.store(true, std::memory_order_release);
    });
    std::uint64_t last = 0;
    do {
        const std::uint64_t now = global_snapshot()[Event::kSwap];
        EXPECT_GE(now, last);
        EXPECT_LE(now, kTotal);
        last = now;
    } while (!done.load(std::memory_order_acquire));
    churn.join();
    EXPECT_EQ(global_snapshot()[Event::kSwap], kTotal);
}

}  // namespace
}  // namespace lcrq::stats
