// Schedule injection against the SCQ hot paths: the threshold-exhaustion
// EMPTY forced deterministically (dead enqueuers, then a live slow one held
// mid-operation), a thread killed between its F&A and its entry CAS, and
// seeded random sweeps over the bounded queue and the LSCQ list.  Visit
// counters prove each forced window actually happened.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "queues/lscq.hpp"
#include "queues/scq.hpp"
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

struct InjectScq : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

// Wait until `cond` holds; the injection schedules make this terminate.
template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// Dead enqueuers (F&A taken, never published) push tail far ahead of any
// item, so a dequeuer's sweep cannot reach the "tail has not passed us"
// catchup exit — EMPTY must come from the threshold draining to below
// zero, in exactly 3n-1 burned tickets (DISC'19 §4.3).  Counting mode
// pins the path: 6 decrements, no catchup, head advanced by exactly 6.
TEST_F(InjectScq, ThresholdExhaustionIsDeterministicWithDeadEnqueuers) {
    ctl().arm();  // counting only; no rules
    ctl().bind_thread(0);

    ScqRing<> r(1);  // n = 2, ring of 4, threshold_full = 5
    ASSERT_EQ(r.enqueue(0), EnqueueResult::kOk);
    for (int i = 0; i < 7; ++i) r.debug_take_enqueue_ticket();

    EXPECT_EQ(r.dequeue().value_or(99), 0u);
    ASSERT_EQ(ctl().visits(0, Point::kScqDeqAfterFaa), 1u);

    const std::uint64_t h = r.head_index();
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_EQ(ctl().visits(0, Point::kScqThresholdDecrement), 6u)
        << "EMPTY must cost exactly threshold_full + 1 = 3n burned-or-checked "
           "tickets, the livelock bound the threshold exists for";
    EXPECT_EQ(ctl().visits(0, Point::kScqCatchup), 0u)
        << "tail was ahead throughout: the catchup exit must not fire";
    EXPECT_EQ(r.head_index(), h + 6);
    EXPECT_LT(r.threshold(), 0);

    // Fast path: with the threshold negative, EMPTY is one load — no
    // ticket is taken and head does not move.
    EXPECT_FALSE(r.dequeue().has_value());
    EXPECT_EQ(ctl().visits(0, Point::kScqDeqAfterFaa), 7u);
    EXPECT_EQ(r.head_index(), h + 6);

    // A fresh enqueue re-arms the bound and its item is reachable.
    ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);
    EXPECT_EQ(r.threshold(), 5);
    EXPECT_EQ(r.dequeue().value_or(99), 1u);
}

// The live version of the window: an enqueuer parked between its tail F&A
// and its entry CAS while a dequeuer sweeps the ring dry.  The dequeuer's
// EMPTY is correct (the enqueue is still pending, so it linearizes after),
// the parked enqueuer's slot was advanced past it (forcing a retry F&A),
// and the item surfaces once the enqueuer resumes — nothing is lost.
TEST_F(InjectScq, SlowEnqueuerWindowDequeuerSweepsToEmpty) {
    ScqRing<> r(1);  // n = 2, ring of 4, threshold_full = 5
    ctl().set_hold_deadline(std::chrono::seconds{10});
    // T1 parks right after claiming its enqueue ticket until T0 has burned
    // four dequeue tickets (the full sweep below).
    ctl().hold_until(1, Point::kScqEnqAfterFaa, 1, 0,
                     Point::kScqThresholdDecrement, 4);
    ctl().arm();

    ASSERT_EQ(r.enqueue(0), EnqueueResult::kOk);  // arms the threshold
    for (int i = 0; i < 3; ++i) r.debug_take_enqueue_ticket();

    std::optional<std::uint64_t> d1, d2, resumed;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);  // parked mid-way
        } else {
            await([&] { return ctl().visits(1, Point::kScqEnqAfterFaa) >= 1; });
            d1 = r.dequeue();  // the armed item
            d2 = r.dequeue();  // sweeps h over the holes AND T1's ticket
            // T1 resumes at the 4th decrement; its slot is already on our
            // cycle, so it must retry with a fresh ticket and publish.
            while (!(resumed = r.dequeue()).has_value()) {
                std::this_thread::yield();
            }
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_EQ(d1.value_or(99), 0u);
    EXPECT_FALSE(d2.has_value())
        << "the pending enqueue linearizes after the sweep: EMPTY is right";
    EXPECT_EQ(resumed.value_or(99), 1u) << "parked enqueuer's item was lost";
    EXPECT_GE(ctl().visits(0, Point::kScqThresholdDecrement), 4u);
    EXPECT_GE(ctl().visits(1, Point::kScqEnqAfterFaa), 2u)
        << "the sweep must have spent the parked ticket, forcing a retry F&A";

    // The forced schedule is linearizable: T1's enqueue(1) spans both the
    // successful dequeue of 0 and the EMPTY.
    verify::History h;
    std::uint64_t ts = 0;
    const auto op = [&](verify::Operation::Kind k, int thread, value_t v) {
        const std::uint64_t invoke = ++ts;
        const std::uint64_t response = ++ts;
        h.push_back({k, thread, v, invoke, response});
    };
    op(verify::Operation::Kind::kEnqueue, 0, 0);
    const std::uint64_t enq_invoke = ++ts;
    op(verify::Operation::Kind::kDequeue, 0, *d1);
    op(verify::Operation::Kind::kDequeue, 0, verify::kEmpty);
    h.push_back({verify::Operation::Kind::kEnqueue, 1, 1, enq_invoke, ++ts});
    op(verify::Operation::Kind::kDequeue, 0, *resumed);
    const auto res = verify::check_queue_exact(h);
    EXPECT_TRUE(res.ok) << res.error;
}

// A thread killed between its tail F&A and its entry CAS is the adversary
// of the nonblocking argument: its ticket is claimed forever, no item
// appears.  Survivors burn past the hole with one empty transition and
// lose nothing; the dead thread's value never surfaces.
TEST_F(InjectScq, KilledEnqueuerMidEntryCasLeavesHoleSurvivorsPass) {
    ScqRing<> r(2);  // n = 4, ring of 8
    ctl().kill_at(1, Point::kScqBeforeEntryCas, 1);
    ctl().arm();

    bool victim_killed = false;
    std::vector<std::uint64_t> survivor_got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.enqueue(3);  // dies holding the first ticket
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);
            ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
            for (int i = 0; i < 3; ++i) {
                if (auto v = r.dequeue()) survivor_got.push_back(*v);
            }
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    ASSERT_EQ(survivor_got.size(), 2u) << "survivors failed to make progress";
    EXPECT_EQ(survivor_got[0], 1u);
    EXPECT_EQ(survivor_got[1], 2u);
    EXPECT_FALSE(r.dequeue().has_value());
}

// The same death at the value-queue level leaks exactly one slot index:
// the victim holds a free-list index it will never publish or return.
// Capacity degrades by one — bounded, not fatal — and FIFO is intact.
TEST_F(InjectScq, KilledEnqueuerLeaksOneSlotQueueDegradesGracefully) {
    Scq<> q(2);  // capacity 4
    ctl().kill_at(1, Point::kScqBeforeEntryCas, 1);
    ctl().arm();

    bool victim_killed = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                // fq's clean consume takes no entry CAS; the first
                // kScqBeforeEntryCas is aq's publish — death lands between
                // claiming the slot and making the item visible.
                (void)q.try_enqueue(9);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
            ASSERT_EQ(q.try_enqueue(2), EnqueueResult::kOk);
            ASSERT_EQ(q.try_enqueue(3), EnqueueResult::kOk);
            // The victim's slot is gone for good: capacity is now 3.
            EXPECT_EQ(q.try_enqueue(4), EnqueueResult::kFull);
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_EQ(q.dequeue().value_or(0), 2u);
    EXPECT_EQ(q.dequeue().value_or(0), 3u);
    EXPECT_FALSE(q.dequeue().has_value()) << "the dead 9 must never surface";
}

// The list's kept-slot path has the same one window: an LSCQ enqueuer
// killed while it publishes the slot its last dequeue kept.  The slot left
// the cache before the publish, so exactly that one slot is lost (the
// bound above) and the id's next owner finds no slot to reuse twice.
// Survivors keep FIFO order and the dead item never surfaces.
TEST_F(InjectScq, KilledEnqueuerOnTheKeptSlotPathLeaksOneSlot) {
    QueueOptions opt;
    opt.ring_order = 2;  // capacity 4
    LscqQueue q(opt);
    // The victim's entry CASes: aq's publish of 9 (fq's consume and aq's
    // are fetch-ors), then aq's publish of 10 into the kept slot.
    ctl().kill_at(1, Point::kScqBeforeEntryCas, 2);
    ctl().arm();

    bool victim_killed = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            q.enqueue(9);
            EXPECT_EQ(q.dequeue().value_or(0), 9u);  // keeps the slot
            try {
                q.enqueue(10);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            for (value_t v = 1; v <= 4; ++v) q.enqueue(v);
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    // Three slots took 1..3; 4 found the first segment full and went to a
    // fresh one.  The dead thread's hazard slot still pins the first
    // segment, which the census walks.
    std::vector<std::uint64_t> in_use;
    q.debug_census([&](auto& seg, std::uint64_t kept) {
        in_use.push_back(seg.allocated_ring().debug_held() +
                         seg.free_ring().debug_held() + kept);
    });
    EXPECT_EQ(in_use, (std::vector<std::uint64_t>{3, 4}))
        << "exactly the victim's slot must be lost";
    for (value_t v = 1; v <= 4; ++v) {
        ASSERT_EQ(q.dequeue().value_or(0), v);
    }
    EXPECT_FALSE(q.dequeue().has_value()) << "the dead 10 must never surface";
}

// Seeded random sweep on the bounded queue: delays at every SCQ point,
// full accounting (the bounded queue never refuses — enqueue spins on
// backpressure — so every value arrives exactly once, FIFO per producer).
TEST_F(InjectScq, RandomPerturbationSweepBoundedQueue) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 300;

    for (const std::uint64_t seed : test::inject_seeds(0x5c9, 8)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/96);
        QueueOptions opt;
        opt.bounded_order = 4;  // capacity 16: constant backpressure
        ScqQueue q(opt);

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
    }
}

// The LSCQ list under the same sweep, through the bulk paths, with tiny
// segments so closes/appends/head-swings happen constantly — and hazard
// reclamation must still leave nothing retired at the end.
TEST_F(InjectScq, RandomPerturbationSweepLscqBulkPaths) {
    constexpr std::uint64_t kPerProducer = 288;
    constexpr std::size_t kBatch = 9;

    for (const std::uint64_t seed : test::inject_seeds(0x15c9, 8)) {
        ctl().reset();
        ctl().arm_random(seed, 96);
        QueueOptions opt;
        opt.ring_order = 2;  // segment capacity 4: batches straddle closes
        LscqQueue q(opt);

        const std::uint64_t total = 2 * kPerProducer;
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(2);

        run_threads(4, [&](int id) {
            ctl().bind_thread(id);
            if (id < 2) {
                std::vector<value_t> batch(kBatch);
                for (std::uint64_t i = 0; i < kPerProducer; i += kBatch) {
                    for (std::size_t j = 0; j < kBatch; ++j) {
                        batch[j] = tag(static_cast<unsigned>(id), i + j);
                    }
                    q.enqueue_bulk(batch);
                }
            } else {
                auto& mine = received[static_cast<std::size_t>(id - 2)];
                value_t out[13];
                while (consumed.load(std::memory_order_acquire) < total) {
                    const std::size_t n = q.dequeue_bulk(out, 13);
                    if (n == 0) {
                        std::this_thread::yield();
                        continue;
                    }
                    mine.insert(mine.end(), out, out + n);
                    consumed.fetch_add(n, std::memory_order_acq_rel);
                }
            }
        });

        SCOPED_TRACE("replay: " + ctl().replay_hint());
        test::expect_exchange_valid(received, 2, kPerProducer);
        q.hazard_domain().scan();
        EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    }
}

}  // namespace
}  // namespace lcrq
