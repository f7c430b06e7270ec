// Schedule injection against the multilane front-end's emptiness
// certification: a dequeuer's lane scan racing an enqueue parked between
// its presence announcement and its lane insert (the window the two-round
// protocol exists for), a thread killed inside that window (the RAII
// finished-bump must keep certification live), a first-time producer
// whose slot appears between the two rounds, and seeded random sweeps
// validated against the per-producer FIFO checker.
//
// Uses MultilaneLscq throughout: TSan cannot instrument cmpxchg16b, so
// LCRQ lanes stay out of the sanitizer-built injection binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "queues/multilane.hpp"
#include "test_support.hpp"
#include "verify/history.hpp"
#include "verify/lin_check.hpp"
#include "verify/schedule_injection.hpp"

namespace lcrq {
namespace {

using inject::Controller;
using inject::Point;
using inject::ThreadKilled;
using test::run_threads;
using test::tag;

Controller& ctl() { return Controller::instance(); }

struct InjectMultilane : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// The lost-wakeup window, forced: the producer announces presence and
// parks before touching its lane queue, while the consumer runs full scan
// rounds over lanes that are all empty.  EMPTY would be wrong — the
// enqueue's presence bump must hold certification open (started !=
// finished) until the insert lands, and the consumer's scan must then
// find the item.  The hold releases only after the consumer has visited
// six scan points (three full rounds over two lanes), proving it was
// denied EMPTY repeatedly *inside* the window.
TEST_F(InjectMultilane, PendingEnqueueDeniesEmptyUntilInsertLands) {
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(1, Point::kLaneEnqPending, 1, 0, Point::kLaneScan, 6);
    ctl().arm();

    std::optional<value_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            q.enqueue(42);  // parks at kLaneEnqPending
        } else {
            await([&] { return ctl().visits(1, Point::kLaneEnqPending) >= 1; });
            got = q.dequeue();  // must wait out the window, then find 42
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_EQ(got.value_or(0), 42u)
        << "dequeue answered EMPTY despite an announced in-flight enqueue";
    EXPECT_GE(ctl().visits(0, Point::kLaneScan), 6u)
        << "the consumer never actually scanned inside the window";
    EXPECT_EQ(ctl().visits(0, Point::kLaneCertify), 0u)
        << "an unbalanced slot must stop the scan before round 2";
    EXPECT_FALSE(q.dequeue().has_value());
}

// A producer killed inside the same window: the RAII guard's finished
// bump runs during unwinding, so the presence slot re-balances and a
// later dequeue may certify EMPTY instead of spinning forever on a ghost
// enqueue.  (The paper's CRQ has the same shape: a dequeuer spin-waits
// only while a matching enqueuer is still live, §4.1.1.)
TEST_F(InjectMultilane, KilledEnqueuerRebalancesPresenceEmptyStaysLive) {
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    ctl().kill_at(1, Point::kLaneEnqPending, 1);
    ctl().arm();

    bool victim_killed = false;
    std::optional<value_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                q.enqueue(7);  // dies after the started bump
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            got = q.dequeue();  // must terminate with a certified EMPTY
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_FALSE(got.has_value()) << "the dead 7 must never surface";
    // The queue stays serviceable after the death.
    q.enqueue(8);
    EXPECT_EQ(q.dequeue().value_or(0), 8u);
}

// A producer's first enqueue into the queue lands between the two scan
// rounds: the consumer's round 1 finds both lanes empty and every visited
// presence slot quiescent (the producer has no slot yet), and it is held
// at kLaneCertify until the producer has attached its slot, bumped
// started and published 42.  Round 2 must then visit a slot round 1 did
// not, refuse to certify, and the next scan must find 42.
TEST_F(InjectMultilane, FirstEnqueueBetweenRoundsDeniesEmpty) {
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(0, Point::kLaneCertify, 1, 1, Point::kScqEnqPublished, 1);
    ctl().arm();

    std::optional<value_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            got = q.dequeue();  // parks at kLaneCertify after round 1
        } else {
            await([&] { return ctl().visits(0, Point::kLaneCertify) >= 1; });
            q.enqueue(42);  // this thread's first enqueue into q
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_EQ(got.value_or(0), 42u)
        << "EMPTY certified although a first-time producer published between the rounds";
    EXPECT_EQ(ctl().visits(0, Point::kLaneCertify), 1u)
        << "the retry after the failed round 2 must find 42 before certifying";
    EXPECT_FALSE(q.dequeue().has_value());
}

// Seeded random sweep, full accounting: values arrive exactly once, in
// per-producer FIFO order — the multilane contract.
TEST_F(InjectMultilane, RandomPerturbationSweepKeepsPerProducerFifo) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 250;

    for (const std::uint64_t seed : test::inject_seeds(0x317e, 8)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/96);
        QueueOptions opt;
        opt.lanes = 2;
        opt.ring_order = 2;  // tiny segments: lane-internal closes galore
        MultilaneLscq q(opt);

        const std::uint64_t total = kProducers * kPerProducer;
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(kConsumers);

        run_threads(kProducers + kConsumers, [&](int id) {
            ctl().bind_thread(id);
            if (id < kProducers) {
                for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                    q.enqueue(tag(static_cast<unsigned>(id), i));
                }
            } else {
                auto& mine = received[static_cast<std::size_t>(id - kProducers)];
                while (consumed.load(std::memory_order_acquire) < total) {
                    if (auto v = q.dequeue()) {
                        mine.push_back(*v);
                        consumed.fetch_add(1, std::memory_order_acq_rel);
                    } else {
                        std::this_thread::yield();
                    }
                }
            }
        });

        SCOPED_TRACE("replay: " + ctl().replay_hint());
        test::expect_exchange_valid(received, kProducers, kPerProducer);
        EXPECT_FALSE(q.dequeue().has_value());
    }
}

// The same sweep recorded as a timestamped history and decided by the
// relaxed checker: per-producer FIFO plus sound EMPTY answers
// (check_queue_fast_per_lane's V4/V5), against the real interleavings the
// injection produces.
TEST_F(InjectMultilane, RandomSweepHistoryPassesPerLaneChecker) {
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPer = 120;

    for (const std::uint64_t seed : test::inject_seeds(0x91f3, 6)) {
        ctl().reset();
        ctl().arm_random(seed, 96);
        QueueOptions opt;
        opt.lanes = 2;
        MultilaneLscq q(opt);

        std::vector<verify::ThreadLog> logs;
        for (int t = 0; t < kThreads; ++t) logs.emplace_back(t, 3 * kPer);
        std::atomic<std::uint64_t> consumed{0};
        const std::uint64_t total = kThreads * kPer;

        run_threads(kThreads, [&](int id) {
            ctl().bind_thread(id);
            auto& log = logs[static_cast<std::size_t>(id)];
            for (std::uint64_t i = 0; i < kPer; ++i) {
                log.enqueue(q, tag(static_cast<unsigned>(id), i));
                if (log.dequeue(q)) consumed.fetch_add(1, std::memory_order_acq_rel);
            }
            while (consumed.load(std::memory_order_acquire) < total) {
                if (log.dequeue(q)) {
                    consumed.fetch_add(1, std::memory_order_acq_rel);
                }
            }
        });

        SCOPED_TRACE("replay: " + ctl().replay_hint());
        const verify::History h = verify::merge(logs);
        const auto res = verify::check_queue_fast_per_lane(h);
        EXPECT_TRUE(res.ok) << res.error;
    }
}

}  // namespace
}  // namespace lcrq
