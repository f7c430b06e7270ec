// Multi-threaded cases of the blocking and coroutine facades, typed over
// the base queue.  The facades' synchronization (eventcount handshake,
// frame parking, close) is the same code whatever the base, so each case
// runs over LcrqQueue in test_shutdown_and_blocking / test_async_queue and
// over LscqQueue and the registry shape UniquePtrBase<AnyQueue> in
// test_facade_threads — the CAS2-free instantiations that the tsan build
// row can instrument.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "queues/async_queue.hpp"
#include "queues/blocking_queue.hpp"
#include "registry/queue_registry.hpp"
#include "test_support.hpp"
#include "util/timing.hpp"

namespace lcrq::test {

inline QueueOptions facade_tiny() {
    QueueOptions opt;
    opt.ring_order = 2;
    opt.starvation_limit = 4;
    return opt;
}

// A facade (BlockingQueue or AsyncQueue) over a case's base: a concrete
// base is built from `opt` in place; the registry shape wraps a catalog
// lscq built from `opt`, as perfbench's dispatch workload wraps its
// backend.
template <template <FacadeBase> class Facade, typename Base>
Facade<Base> make_facade(const QueueOptions& opt = {}, std::size_t capacity = 0) {
    if constexpr (std::is_same_v<Base, UniquePtrBase<AnyQueue>>) {
        return Facade<Base>(Base(make_queue("lscq", opt)), capacity);
    } else {
        return Facade<Base>(opt, capacity);
    }
}

// Poll `cond` until it holds or `timeout_ns` pass; true when it held.
template <typename Cond>
bool eventually(Cond cond, std::uint64_t timeout_ns = 5'000'000'000) {
    const std::uint64_t deadline = now_ns() + timeout_ns;
    while (!cond()) {
        if (now_ns() >= deadline) return false;
        std::this_thread::yield();
    }
    return true;
}

inline constexpr std::size_t kNoIndex = ~std::size_t{0};

// A waiter that keeps the blocking facade's spin token fresh: it loops
// 5 us waits, each of which re-claims the token and spins to its deadline,
// until it gets an item (returned) or the facade closes (nullopt).  `index`
// receives its thread_index() before the first wait.
template <typename Q>
std::optional<value_t> hold_spin_token(Q& q, std::atomic<std::size_t>& index) {
    index.store(thread_index(), std::memory_order_release);
    for (;;) {
        const WaitResult r = q.wait_dequeue_for(5'000);
        if (!r.timed_out()) return r.to_optional();
    }
}

// --- blocking facade -------------------------------------------------------

template <typename Base>
struct BlockingThreads : ::testing::Test {};
TYPED_TEST_SUITE_P(BlockingThreads);

TYPED_TEST_P(BlockingThreads, WaitDequeueGetsItem) {
    auto q = make_facade<BlockingQueue, TypeParam>();
    std::thread producer([&] {
        spin_for_ns(2'000'000);
        EXPECT_TRUE(q.try_enqueue(42));
    });
    const auto v = q.wait_dequeue();  // blocks until the producer lands
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42u);
    producer.join();
}

TYPED_TEST_P(BlockingThreads, CloseWakesSleepers) {
    auto q = make_facade<BlockingQueue, TypeParam>();
    std::atomic<int> woke{0};
    std::vector<std::thread> sleepers;
    for (int i = 0; i < 3; ++i) {
        sleepers.emplace_back([&] {
            const auto v = q.wait_dequeue();
            EXPECT_FALSE(v.has_value());  // closed and empty
            woke.fetch_add(1);
        });
    }
    spin_for_ns(3'000'000);  // give them time to reach the futex
    q.close();
    for (auto& t : sleepers) t.join();
    EXPECT_EQ(woke.load(), 3);
    EXPECT_FALSE(q.try_enqueue(1)) << "enqueue after close must be refused";
}

TYPED_TEST_P(BlockingThreads, ProducerConsumerThroughputWithShutdown) {
    // The canonical lifecycle: producers produce, the last one out closes,
    // blocked consumers wake, drain, and see the closed signal.
    auto q = make_facade<BlockingQueue, TypeParam>();
    constexpr std::uint64_t kItems = 20'000;
    std::atomic<std::uint64_t> received{0};
    std::atomic<int> producers_left{2};
    run_threads(4, [&](int id) {
        if (id < 2) {
            for (std::uint64_t i = 0; i < kItems / 2; ++i) {
                ASSERT_TRUE(q.try_enqueue(tag(static_cast<unsigned>(id), i)));
            }
            if (producers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                q.close();
            }
        } else {
            while (auto v = q.wait_dequeue()) {
                received.fetch_add(1, std::memory_order_acq_rel);
            }
            // nullopt: closed and drained (for this consumer's view).
        }
    });
    while (q.try_dequeue().has_value()) received.fetch_add(1);
    EXPECT_EQ(received.load(), kItems);
}

TYPED_TEST_P(BlockingThreads, WaitForSeesConcurrentProducer) {
    auto q = make_facade<BlockingQueue, TypeParam>();
    std::thread producer([&] {
        spin_for_ns(1'000'000);
        EXPECT_TRUE(q.try_enqueue(77));
    });
    const WaitResult r = q.wait_dequeue_for(2'000'000'000);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, 77u);
    producer.join();
}

TYPED_TEST_P(BlockingThreads, ParkedConsumerWakesOnEveryAdmit) {
    // Each round the producer admits only once the consumer has parked
    // for the item (kBlockedDeq is counted once per sleeping wait, after
    // the waiter registers), so every admit must wake a sleeper: the gated
    // signal sees the registered waiter every time.  Waiting out a fixed
    // spin instead let a loaded host run every round without a park.
    auto q = make_facade<BlockingQueue, TypeParam>();
    constexpr value_t kRounds = 20;
    stats::reset_all();
    std::thread producer([&] {
        for (value_t v = 1; v <= kRounds; ++v) {
            (void)eventually(
                [&] { return stats::global_snapshot()[stats::Event::kBlockedDeq] >= v; });
            ASSERT_TRUE(q.try_enqueue(v));
        }
    });
    for (value_t v = 1; v <= kRounds; ++v) {
        const WaitResult r = q.wait_dequeue_for(5'000'000'000);
        ASSERT_TRUE(r.ok()) << "round " << v;
        EXPECT_EQ(r.value, v);
    }
    producer.join();
    EXPECT_GT(stats::global_snapshot()[stats::Event::kBlockedDeq], 0u)
        << "the consumer never parked; the rounds tested no wake";
}

TYPED_TEST_P(BlockingThreads, WaitEnqueueBlocksUntilSpace) {
    auto q = make_facade<BlockingQueue, TypeParam>(QueueOptions{}, /*capacity=*/4);
    for (value_t v = 1; v <= 4; ++v) ASSERT_TRUE(q.try_enqueue(v));
    std::thread consumer([&] {
        spin_for_ns(2'000'000);
        EXPECT_EQ(q.try_dequeue().value_or(0), 1u);
    });
    const WaitStatus st = q.wait_enqueue_for(5, 2'000'000'000);
    EXPECT_EQ(st, WaitStatus::kOk) << "blocked producer must land after the dequeue";
    consumer.join();
}

TYPED_TEST_P(BlockingThreads, WaitEnqueueWakesOnClose) {
    auto q = make_facade<BlockingQueue, TypeParam>(QueueOptions{}, /*capacity=*/1);
    ASSERT_TRUE(q.try_enqueue(1));
    std::thread closer([&] {
        spin_for_ns(2'000'000);
        q.close();
    });
    EXPECT_EQ(q.wait_enqueue(2), WaitStatus::kClosed);
    closer.join();
}

TYPED_TEST_P(BlockingThreads, DrainRacesConcurrentConsumersWithoutLoss) {
    // drain() and wait_dequeue consumers split the remainder; nothing is
    // lost and nothing is double-delivered.
    auto q = make_facade<BlockingQueue, TypeParam>();
    constexpr std::uint64_t kItems = 10'000;
    for (std::uint64_t i = 0; i < kItems; ++i) {
        ASSERT_TRUE(q.try_enqueue(tag(1, i)));
    }
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> drained{0};
    run_threads(3, [&](int id) {
        if (id == 0) {
            const DrainReport rep = q.drain(2'000'000'000);
            drained.fetch_add(rep.drained);
        } else {
            while (q.wait_dequeue().has_value()) consumed.fetch_add(1);
        }
    });
    EXPECT_EQ(consumed.load() + drained.load(), kItems);
}

TYPED_TEST_P(BlockingThreads, ProducersOvershootCapacityByFewerThanTheirNumber) {
    // No consumer; each producer admits until its first refusal.  A
    // refusal is decided on the exact tally sum, so the total reaches
    // capacity.  An admit passes its check only while the published sum
    // is below capacity, so only the other producers' admits in flight
    // (at most one each) can overshoot it.  The capacity is well above the
    // fast check's slack, so both admission paths run.  The 2 * capacity
    // cap turns a watermark that never refuses into a failure, not an
    // unbounded queue.
    constexpr std::size_t kCapacity = 10'000;
    constexpr int kProducers = 4;
    auto q = make_facade<BlockingQueue, TypeParam>(QueueOptions{}, kCapacity);
    const std::uint64_t shed0 = stats::global_snapshot()[stats::Event::kShed];
    std::atomic<std::uint64_t> total{0};
    run_threads(kProducers, [&](int id) {
        std::uint64_t mine = 0;
        while (mine < 2 * kCapacity &&
               q.try_enqueue(tag(static_cast<unsigned>(id), mine))) {
            ++mine;
        }
        total.fetch_add(mine);
    });
    EXPECT_GE(total.load(), kCapacity);
    EXPECT_LE(total.load(), kCapacity + kProducers - 1);
    EXPECT_EQ(q.approx_size(), total.load());
    EXPECT_EQ(stats::global_snapshot()[stats::Event::kShed] - shed0,
              static_cast<std::uint64_t>(kProducers))
        << "one shed per producer: its first and only refusal";
}

TYPED_TEST_P(BlockingThreads, OneWaiterSpinsAtATime) {
    // Two waiters on an empty facade: A keeps the spin token fresh, so B's
    // one long wait finds it taken and parks as a standby instead of
    // spinning beside A.  Sampled, because a preempted A lets B take the
    // token over for a window; no assertion on CPU time.
    auto q = make_facade<BlockingQueue, TypeParam>();
    std::atomic<std::size_t> a{kNoIndex};
    std::thread holder([&] { EXPECT_FALSE(hold_spin_token(q, a).has_value()); });
    const bool held = eventually([&] { return q.debug_spin_holder() == a.load(); });
    WaitResult b_got;
    std::thread standby([&] { b_got = q.wait_dequeue_for(10'000'000'000); });
    const bool seen = held && eventually([&] {
        return q.debug_standby_waiters() == 1 && q.debug_spin_holder() == a.load();
    });
    q.close();
    holder.join();
    standby.join();
    EXPECT_TRUE(held) << "the first waiter never took the spin token";
    EXPECT_TRUE(seen) << "never one token holder and one standby waiter at once";
    EXPECT_TRUE(b_got.closed());
}

TYPED_TEST_P(BlockingThreads, StandbyTakesOverFromAHolderThatLeft) {
    // Holder A takes item 1 and never calls again, so its token stays in
    // the word.  Item 2 must still reach the standby B: no admit wakes a
    // standby, so B's own peek at the end of a slice carries it (and A's
    // stamp goes stale one window after A left).  100 ms is thousands of
    // slices.  A standby that re-parks on a held token without peeking
    // keeps B asleep to its deadline.  B can beat a preempted A to item 1
    // through that same peek, or take the token while A is off its CPU;
    // such an attempt sets nothing up and is retried on a fresh facade (on
    // an oversubscribed host B wins about half of them).
    constexpr std::uint64_t kDeliveryBoundNs = 100'000'000;
    bool set_up = false;
    for (int attempt = 0; attempt < 50 && !set_up; ++attempt) {
        auto q = make_facade<BlockingQueue, TypeParam>();
        std::atomic<std::size_t> a{kNoIndex};
        std::optional<value_t> a_got;
        std::atomic<bool> a_left{false};
        std::thread holder([&] {
            a_got = hold_spin_token(q, a);
            a_left.store(true, std::memory_order_release);
        });
        const bool held = eventually([&] { return q.debug_spin_holder() == a.load(); });
        WaitResult b_got;
        std::atomic<bool> b_back{false};
        std::thread standby([&] {
            b_got = q.wait_dequeue_for(5'000'000'000);
            b_back.store(true, std::memory_order_release);
        });
        const bool stood_by = held && eventually([&] {
            return q.debug_standby_waiters() == 1 && q.debug_spin_holder() == a.load();
        });
        bool delivered = false;
        std::uint64_t waited = 0;
        if (stood_by && q.try_enqueue(1) && eventually([&] {
                return a_left.load(std::memory_order_acquire) ||
                       b_back.load(std::memory_order_acquire);
            }) &&
            a_left.load(std::memory_order_acquire)) {
            set_up = true;
            const std::uint64_t t0 = now_ns();
            EXPECT_TRUE(q.try_enqueue(2));
            delivered = eventually([&] { return b_back.load(std::memory_order_acquire); },
                                   kDeliveryBoundNs);
            waited = now_ns() - t0;
        }
        q.close();  // ends A's loop, and releases a stranded B
        holder.join();
        standby.join();
        ASSERT_TRUE(stood_by) << "no holder and standby to start from";
        if (!set_up) continue;
        EXPECT_EQ(a_got.value_or(0), 1u);
        EXPECT_TRUE(delivered) << "item 2 did not reach the standby in "
                               << kDeliveryBoundNs / 1'000'000 << " ms";
        EXPECT_LT(waited, kDeliveryBoundNs);
        ASSERT_TRUE(b_got.ok());
        EXPECT_EQ(b_got.value, 2u);
    }
    EXPECT_TRUE(set_up) << "B took item 1 from A in every attempt";
}

TYPED_TEST_P(BlockingThreads, CloseReleasesStandbyWaiters) {
    // A standby sleeps on an eventcount that no admit signals; close()
    // does, and the standby reports closed-and-drained long before its own
    // 10 s deadline.
    auto q = make_facade<BlockingQueue, TypeParam>();
    std::atomic<std::size_t> a{kNoIndex};
    std::thread holder([&] { EXPECT_FALSE(hold_spin_token(q, a).has_value()); });
    const bool held = eventually([&] { return q.debug_spin_holder() == a.load(); });
    WaitResult b_got;
    std::atomic<std::uint64_t> b_back_at{0};
    std::thread standby([&] {
        b_got = q.wait_dequeue_for(10'000'000'000);
        b_back_at.store(now_ns(), std::memory_order_release);
    });
    const bool stood_by = held && eventually([&] { return q.debug_standby_waiters() == 1; });
    const std::uint64_t closed_at = now_ns();
    q.close();
    holder.join();
    standby.join();
    ASSERT_TRUE(stood_by) << "no holder and standby to start from";
    EXPECT_TRUE(b_got.closed());
    EXPECT_LT(b_back_at.load() - closed_at, 1'000'000'000u) << "close left the standby asleep";
}

REGISTER_TYPED_TEST_SUITE_P(BlockingThreads, WaitDequeueGetsItem, CloseWakesSleepers,
                            ProducerConsumerThroughputWithShutdown,
                            WaitForSeesConcurrentProducer, ParkedConsumerWakesOnEveryAdmit,
                            WaitEnqueueBlocksUntilSpace, WaitEnqueueWakesOnClose,
                            DrainRacesConcurrentConsumersWithoutLoss,
                            ProducersOvershootCapacityByFewerThanTheirNumber,
                            OneWaiterSpinsAtATime, StandbyTakesOverFromAHolderThatLeft,
                            CloseReleasesStandbyWaiters);

// --- coroutine facade ------------------------------------------------------

// Detached logical workers: many consumer coroutines multiplexed over the
// wakers' threads, counting every delivered item exactly once.
template <typename Base>
DetachedTask detached_consumer(AsyncQueue<Base>& q, std::atomic<std::uint64_t>& sum,
                               std::atomic<int>& live) {
    for (;;) {
        const auto v = co_await q.dequeue();
        if (!v.has_value()) break;
        sum.fetch_add(*v, std::memory_order_relaxed);
    }
    live.fetch_sub(1, std::memory_order_release);
}

template <typename Base>
DetachedTask detached_producer(AsyncQueue<Base>& q, std::uint64_t first, std::uint64_t n,
                               std::atomic<int>& live) {
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!co_await q.enqueue(first + i)) break;
    }
    live.fetch_sub(1, std::memory_order_release);
}

template <typename Base>
struct AsyncThreads : ::testing::Test {};
TYPED_TEST_SUITE_P(AsyncThreads);

TYPED_TEST_P(AsyncThreads, ParkedDequeueResumesOnBlockingSideAdmit) {
    // Regression: frames used to park on a stack of their own that only the
    // coroutine layer's wakers popped, so an item admitted through
    // blocking() left a parked consumer frame asleep until close().  The
    // wait is bounded, and closing on failure resumes the frame so the
    // test fails instead of hanging.
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny());
    std::optional<value_t> got;
    std::atomic<bool> done{false};
    std::thread consumer([&] {
        got = sync_wait(q.dequeue());
        done.store(true, std::memory_order_release);
    });
    spin_for_ns(20'000'000);  // give the frame time to park
    ASSERT_TRUE(q.blocking().try_enqueue(57));
    const bool resumed = eventually([&] { return done.load(std::memory_order_acquire); });
    if (!resumed) q.close();
    consumer.join();
    EXPECT_TRUE(resumed) << "the parked frame slept through a blocking() admit";
    EXPECT_EQ(got.value_or(0), 57u);
}

TYPED_TEST_P(AsyncThreads, ParkedDequeueResumesOnCoroutineEnqueue) {
    // The waker here is itself a coroutine: co_await enqueue() must resume
    // the parked consumer frame just like a thread-side admission does.
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny());
    std::optional<value_t> got;
    std::thread consumer([&] { got = sync_wait(q.dequeue()); });
    spin_for_ns(2'000'000);
    EXPECT_TRUE(sync_wait(q.enqueue(31)));
    consumer.join();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 31u);
}

TYPED_TEST_P(AsyncThreads, CloseWakesParkedConsumerToNullopt) {
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny());
    std::optional<value_t> got = 1;  // sentinel: must become nullopt
    std::thread consumer([&] { got = sync_wait(q.dequeue()); });
    spin_for_ns(2'000'000);
    q.close();
    consumer.join();
    EXPECT_FALSE(got.has_value());
}

TYPED_TEST_P(AsyncThreads, BoundedEnqueueParksUntilSpaceFrees) {
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny(), /*capacity=*/1);
    ASSERT_TRUE(q.blocking().try_enqueue(1));
    std::atomic<int> result{-1};
    std::thread producer([&] { result.store(sync_wait(q.enqueue(2)) ? 1 : 0); });
    spin_for_ns(2'000'000);
    EXPECT_EQ(result.load(), -1) << "enqueue must park while the queue is full";
    EXPECT_EQ(q.blocking().try_dequeue().value_or(0), 1u);
    producer.join();
    EXPECT_EQ(result.load(), 1);
    EXPECT_EQ(q.blocking().try_dequeue().value_or(0), 2u);
}

TYPED_TEST_P(AsyncThreads, CloseFailsParkedBoundedProducer) {
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny(), /*capacity=*/1);
    ASSERT_TRUE(q.blocking().try_enqueue(1));
    std::atomic<int> result{-1};
    std::thread producer([&] { result.store(sync_wait(q.enqueue(2)) ? 1 : 0); });
    spin_for_ns(2'000'000);
    q.close();
    producer.join();
    EXPECT_EQ(result.load(), 0) << "close must fail the parked producer";
}

TYPED_TEST_P(AsyncThreads, ParkingEnqueueDoesNotInflateShedCounter) {
    // Regression: the bounded enqueue retry loop used to call try_enqueue,
    // which counts a shed on every watermark refusal — one logical co_await
    // that parked and then succeeded recorded many sheds.  The async path
    // never sheds: it parks on full and fails only on close.
    stats::reset_all();
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny(), /*capacity=*/1);
    ASSERT_TRUE(sync_wait(q.enqueue(1)));
    std::atomic<int> result{-1};
    std::thread producer([&] { result.store(sync_wait(q.enqueue(2)) ? 1 : 0); });
    spin_for_ns(2'000'000);  // let the producer hit full and park
    EXPECT_EQ(q.blocking().try_dequeue().value_or(0), 1u);
    producer.join();
    EXPECT_EQ(result.load(), 1);
    const stats::Snapshot s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kShed], 0u)
        << "a parked-then-admitted co_await enqueue must not record sheds";
}

TYPED_TEST_P(AsyncThreads, DetachedWorkersDrainEverythingAcrossThreads) {
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny());
    std::atomic<std::uint64_t> sum{0};
    std::atomic<int> live{4};
    for (int i = 0; i < 4; ++i) detached_consumer(q, sum, live);

    constexpr std::uint64_t kPerProducer = 2'000;
    run_threads(2, [&](int id) {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
            const value_t v = static_cast<value_t>(id * kPerProducer + i + 1);
            while (!q.blocking().try_enqueue(v)) std::this_thread::yield();
        }
    });
    q.close();
    while (live.load(std::memory_order_acquire) != 0) std::this_thread::yield();

    const std::uint64_t n = 2 * kPerProducer;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "items lost or duplicated";
}

TYPED_TEST_P(AsyncThreads, ParkAbortWakeChurnStress) {
    // Hammers the park-abort-vs-wake CAS race (regression for the waiter
    // node use-after-free: the losing awaiter still runs its state CAS, so
    // the node must stay alive until both parties are done).  Capacity 1
    // keeps the producer frames parking on nearly every item while two
    // dequeuing threads race the awaiters for the nodes.
    auto q = make_facade<AsyncQueue, TypeParam>(facade_tiny(), /*capacity=*/1);
    constexpr std::uint64_t kPer = 3'000;
    std::atomic<int> live{3};
    for (int i = 0; i < 3; ++i) detached_producer(q, i * kPer + 1, kPer, live);
    std::atomic<std::uint64_t> sum{0};
    std::atomic<bool> stop{false};
    std::thread helper([&] {
        while (!stop.load(std::memory_order_acquire)) {
            if (auto v = q.blocking().try_dequeue()) {
                sum.fetch_add(*v, std::memory_order_relaxed);
            }
        }
    });
    while (live.load(std::memory_order_acquire) != 0) {
        if (auto v = q.blocking().try_dequeue()) {
            sum.fetch_add(*v, std::memory_order_relaxed);
        }
    }
    stop.store(true, std::memory_order_release);
    helper.join();
    while (auto v = q.blocking().try_dequeue()) sum.fetch_add(*v, std::memory_order_relaxed);
    const std::uint64_t n = 3 * kPer;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "items lost or duplicated";
}

REGISTER_TYPED_TEST_SUITE_P(AsyncThreads, ParkedDequeueResumesOnBlockingSideAdmit,
                            ParkedDequeueResumesOnCoroutineEnqueue,
                            CloseWakesParkedConsumerToNullopt,
                            BoundedEnqueueParksUntilSpaceFrees, CloseFailsParkedBoundedProducer,
                            ParkingEnqueueDoesNotInflateShedCounter,
                            DetachedWorkersDrainEverythingAcrossThreads,
                            ParkAbortWakeChurnStress);

}  // namespace lcrq::test
