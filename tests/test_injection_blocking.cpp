// Schedule injection against the blocking facade's sleep/notify protocol:
// a producer killed between publishing and waking (the lost-notify
// adversary the sliced wait exists for), a consumer killed holding the
// spin token, a drainer killed mid-sweep, a bounded producer killed while
// registered as a waiter (the WaiterGuard unwind), and a seeded random
// sweep over the bounded-enqueue wait window.
//
// Uses the LSCQ base: its hot paths carry no cmpxchg16b, so this binary is
// eligible for the TSan-inject configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "queues/blocking_queue.hpp"
#include "queues/lscq.hpp"
#include "test_support.hpp"
#include "verify/schedule_injection.hpp"

namespace lcrq {
namespace {

using inject::Controller;
using inject::Point;
using inject::ThreadKilled;
using test::run_threads;
using test::tag;

Controller& ctl() { return Controller::instance(); }

struct InjectBlocking : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

QueueOptions tiny() {
    QueueOptions opt;
    opt.ring_order = 2;
    return opt;
}

// Wait until `cond` holds; the injection schedules make this terminate.
template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// A producer killed at kBlockNotify has published its item and bumped the
// epoch but never issues the futex wake — the classic lost notify.  The
// sliced wait bounds the damage: the sleeping consumer's slice (<= 10 ms)
// times out, it re-checks, and it finds the item.  Before the fix the
// consumer busy-waited so this could not strand; with a real sleep it
// strands forever unless the slices re-check.
TEST_F(InjectBlocking, KilledProducerAtNotifyDoesNotStrandSleeper) {
    BlockingQueue<LscqQueue> q(tiny());
    ctl().kill_at(1, Point::kBlockNotify, 1);
    ctl().arm();

    WaitResult got;
    bool victim_killed = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            got = q.wait_dequeue_for(5'000'000'000);  // 5 s: never the bound
        } else {
            // Enqueue only once the consumer is registered and about to
            // sleep, so the lost wake actually targets a sleeper.
            await([&] { return ctl().visits(0, Point::kBlockWait) >= 1; });
            try {
                (void)q.try_enqueue(42);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    ASSERT_TRUE(got.ok()) << "sleeper stranded by the lost notify";
    EXPECT_EQ(got.value, 42u) << "published item must be the one delivered";
}

// The gated signal: with nobody registered, an admit is a fence and a
// load of the registration word — it never bumps, so it never reaches the
// bump-to-wake window.
TEST_F(InjectBlocking, AdmitsWithNoWaiterSkipTheNotifyWindow) {
    BlockingQueue<LscqQueue> q(tiny());
    ctl().arm();
    ctl().bind_thread(0);
    for (value_t v = 1; v <= 100; ++v) ASSERT_TRUE(q.try_enqueue(v));
    EXPECT_EQ(ctl().visits(0, Point::kBlockNotify), 0u);
}

// A consumer registered and held just before its sleep: one admit sees
// the registration, takes the bump-and-wake path exactly once, and the
// consumer, whose epoch snapshot the bump made stale, gets the item.
TEST_F(InjectBlocking, OneAdmitWakesARegisteredConsumer) {
    BlockingQueue<LscqQueue> q(tiny());
    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(0, Point::kBlockWait, 1, 1, Point::kBlockNotify, 1);
    ctl().arm();

    WaitResult got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            got = q.wait_dequeue_for(5'000'000'000);  // 5 s: never the bound
        } else {
            await([&] { return ctl().visits(0, Point::kBlockWait) >= 1; });
            ASSERT_TRUE(q.try_enqueue(42));
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_EQ(ctl().visits(1, Point::kBlockNotify), 1u);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value, 42u);
}

// A consumer killed at kBlockSpin has claimed the spin token and dies
// before its window opens, so the token names a dead thread.  The live
// waiter stands by only until that stamp goes stale, one window later,
// then takes the token, and an admitted item reaches it.  The victim stays
// alive after the kill so that no later thread inherits its
// thread_index() and finds the token its own.
TEST_F(InjectBlocking, KilledSpinnerHoldsTheTokenForOneWindow) {
    BlockingQueue<LscqQueue> q(tiny());
    ctl().kill_at(0, Point::kBlockSpin, 1);
    ctl().arm();

    std::atomic<std::size_t> survivor{~std::size_t{0}};
    std::atomic<bool> done{false};
    bool victim_killed = false;
    bool took_over = false;
    WaitResult got;
    run_threads(3, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            try {
                (void)q.wait_dequeue_for(5'000'000'000);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
            await([&] { return done.load(std::memory_order_acquire); });
        } else if (id == 1) {
            survivor.store(thread_index(), std::memory_order_release);
            await([&] { return ctl().kills_fired() >= 1; });
            got = q.wait_dequeue_for(5'000'000'000);  // 5 s: never the bound
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            // 1 s is 40,000 windows: the takeover never comes without a
            // stale-token claim.
            const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{1};
            while (!(took_over = q.debug_spin_holder() == survivor.load()) &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            EXPECT_TRUE(q.try_enqueue(42));
            done.store(true, std::memory_order_release);
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    EXPECT_TRUE(took_over) << "the live waiter never took the dead spinner's token";
    EXPECT_GE(ctl().visits(1, Point::kBlockSpin), 1u);
    ASSERT_TRUE(got.ok()) << "the admitted item never reached the live waiter";
    EXPECT_EQ(got.value, 42u);
}

// A drainer killed mid-sweep (kDrain fires at the top of every pass) must
// not wedge shutdown: the queue is already closed, the victim's partial
// sink is kept, and a surviving drainer finishes the remainder to a
// conclusive EMPTY.  Nothing is lost or double-delivered.
TEST_F(InjectBlocking, KilledDrainerDoesNotBlockShutdown) {
    BlockingQueue<LscqQueue> q(tiny());
    constexpr value_t kItems = 20;
    for (value_t v = 1; v <= kItems; ++v) ASSERT_TRUE(q.try_enqueue(v));

    ctl().kill_at(1, Point::kDrain, 3);  // dies after delivering 2 items
    ctl().arm();

    std::vector<value_t> victim_got, survivor_got;
    bool victim_killed = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)q.drain(5'000'000'000, [&](value_t v) { victim_got.push_back(v); });
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            const DrainReport rep =
                q.drain(5'000'000'000, [&](value_t v) { survivor_got.push_back(v); });
            EXPECT_TRUE(rep.complete) << "survivor must reach conclusive EMPTY";
            EXPECT_EQ(rep.drained, survivor_got.size());
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_TRUE(q.closed()) << "the victim's drain closed the queue before dying";
    EXPECT_EQ(victim_got.size(), 2u);
    EXPECT_EQ(victim_got.size() + survivor_got.size(), kItems)
        << "items lost or double-delivered across the two drainers";
    // FIFO holds across the handoff: victim got the prefix, survivor the rest.
    for (std::size_t i = 0; i < victim_got.size(); ++i) {
        EXPECT_EQ(victim_got[i], i + 1);
    }
    for (std::size_t i = 0; i < survivor_got.size(); ++i) {
        EXPECT_EQ(survivor_got[i], victim_got.size() + i + 1);
    }
}

// A bounded producer killed at kBlockWait dies while announced on the
// space eventcount; the WaiterGuard unwind must retract the registration
// so the facade stays fully functional — no deadlock, no wake storm, and
// subsequent bounded waits still time out and close out correctly.
TEST_F(InjectBlocking, KilledBoundedProducerUnwindKeepsFacadeUsable) {
    BlockingQueue<LscqQueue> q(tiny(), /*capacity=*/1);
    ASSERT_TRUE(q.try_enqueue(1));  // full

    ctl().kill_at(1, Point::kBlockWait, 1);
    ctl().arm();

    bool victim_killed = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)q.wait_enqueue(2);  // registers, then dies at the point
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            EXPECT_EQ(q.try_dequeue().value_or(0), 1u);
            EXPECT_TRUE(q.try_enqueue(3)) << "freed space must be usable";
            EXPECT_EQ(q.wait_enqueue_for(4, 3'000'000), WaitStatus::kTimeout)
                << "bounded wait on a full queue must still time out cleanly";
            q.close();
            EXPECT_EQ(q.wait_enqueue(5), WaitStatus::kClosed);
            EXPECT_EQ(q.wait_dequeue_for(100'000'000).value, 3u);
            EXPECT_TRUE(q.wait_dequeue_for(100'000'000).closed());
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
}

// Seeded random sweep over the bounded-enqueue wait window: tiny capacity
// so producers constantly ride the watermark, random delays at every
// facade and LSCQ point, full exactly-once FIFO accounting.  Consumers
// start only once a producer has parked: with the facade full and nobody
// dequeuing, a producer must outlast its spin window and reach the wait,
// so every seed covers the window by construction.
TEST_F(InjectBlocking, RandomPerturbationSweepBoundedEnqueue) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 200;

    std::uint64_t block_window_visits = 0;
    const auto producer_parked = [] {
        for (int p = 0; p < kProducers; ++p) {
            if (ctl().visits(p, Point::kBlockWait) > 0) return true;
        }
        return false;
    };
    for (const std::uint64_t seed : test::inject_seeds(0xb10c, 6)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/96);
        BlockingQueue<LscqQueue> q(tiny(), /*capacity=*/3);

        const std::uint64_t total = kProducers * kPerProducer;
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(kConsumers);

        run_threads(kProducers + kConsumers, [&](int id) {
            ctl().bind_thread(id);
            if (id < kProducers) {
                for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                    ASSERT_EQ(q.wait_enqueue(tag(static_cast<unsigned>(id), i)),
                              WaitStatus::kOk);
                }
            } else {
                // Bounded: a missed window fails the EXPECT_GT below, not
                // the run.
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds{10};
                while (!producer_parked() &&
                       std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::yield();
                }
                auto& mine = received[static_cast<std::size_t>(id - kProducers)];
                while (consumed.load(std::memory_order_acquire) < total) {
                    const WaitResult r = q.wait_dequeue_for(1'000'000);
                    if (!r.ok()) continue;
                    mine.push_back(r.value);
                    consumed.fetch_add(1, std::memory_order_acq_rel);
                }
            }
        });

        SCOPED_TRACE("replay: " + ctl().replay_hint());
        test::expect_exchange_valid(received, kProducers, kPerProducer);
        for (int p = 0; p < kProducers; ++p) {
            block_window_visits += ctl().visits(p, Point::kBlockWait);
        }
    }
    EXPECT_GT(block_window_visits, 0u)
        << "the sweep never reached the bounded-enqueue wait window; "
           "shrink the capacity or raise the delay rate";
}

}  // namespace
}  // namespace lcrq
