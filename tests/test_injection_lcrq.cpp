// Schedule injection against the real Lcrq: the list-layer windows the
// paper's December-2013 correction exists for, thread-kill adversaries,
// and seed-replayable random sweeps validated by the linearizability
// checkers on recorded histories.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lcrq.hpp"
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

struct InjectLcrq : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

QueueOptions tiny_ring(unsigned order, unsigned starvation) {
    QueueOptions opt;
    opt.ring_order = order;
    opt.starvation_limit = starvation;
    opt.spin_wait_iters = 0;
    return opt;
}

template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// The proceedings-version bug window, forced on the production queue.
//
// Figure 5 as published swings the list head as soon as a drained-looking
// ring has a successor; the December-2013 revision retries the dequeue
// once more first, because an enqueue can complete in the ring *between*
// the EMPTY observation and the successor check.  This schedule constructs
// exactly that straddle:
//
//   B (dequeuer) burns ticket 0 of ring 0 (poisoning the cell), observes
//     EMPTY, and parks at kListEmptyObserved — before the successor check;
//   X (enqueuer) then lands 10 and 20 in ring 0, fills it, closes it, and
//     appends ring 1 seeded with 30 (kListAppend releases B);
//   B resumes: the successor now exists, so without the corrected retry it
//     would swing head past ring 0 and lose 10 and 20.  With the fix, its
//     second dequeue attempt returns 10.
//
// (The step-model explorer proves the uncorrected variant loses items in
// this family of schedules — test_model_explore.cpp; here the *real* queue
// is driven through the same window.)
TEST_F(InjectLcrq, CorrectedDequeueRetrySavesItemInForcedBugWindow) {
    LcrqQueue q(tiny_ring(1, 2));  // R = 2
    ctl().set_hold_deadline(std::chrono::seconds{10});
    // X parks after its first enqueue F&A until B has observed EMPTY —
    // guaranteeing B's poison of cell 0 precedes X's first publish attempt.
    ctl().hold_until(0, Point::kEnqAfterFaa, 1, 1, Point::kListEmptyObserved, 1);
    // B parks at its EMPTY observation until X's append CAS has succeeded.
    ctl().hold_until(1, Point::kListEmptyObserved, 1, 0, Point::kListAppend, 1);
    ctl().arm();

    std::vector<verify::ThreadLog> logs;
    logs.emplace_back(0);
    logs.emplace_back(1);
    logs.emplace_back(2);

    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            logs[0].enqueue(q, 10);  // parks post-F&A; lands in ring 0
            logs[0].enqueue(q, 20);  // fills ring 0
            logs[0].enqueue(q, 30);  // ring full -> close -> append ring 1
        } else {
            logs[1].dequeue(q);  // EMPTY-then-retry window
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_EQ(ctl().visits(0, Point::kListAppend), 1u)
        << "the enqueuer never split the queue";
    ASSERT_EQ(logs[1].ops().size(), 1u);
    EXPECT_EQ(logs[1].ops()[0].value, 10u)
        << "the corrected second-dequeue retry failed to recover the item "
           "the proceedings version loses";

    // Drain the rest; FIFO order must survive the ring switch.
    const auto a = q.dequeue();
    const auto b = q.dequeue();
    ASSERT_TRUE(a.has_value() && b.has_value()) << "items lost across the close";
    logs[2].ops_mutable().push_back({verify::Operation::Kind::kDequeue, 2, *a,
                                     rdtsc(), rdtsc()});
    logs[2].ops_mutable().push_back({verify::Operation::Kind::kDequeue, 2, *b,
                                     rdtsc(), rdtsc()});
    EXPECT_EQ(*a, 20u);
    EXPECT_EQ(*b, 30u);
    EXPECT_FALSE(q.dequeue().has_value());

    const auto history = verify::merge(logs);
    const auto r = verify::check_queue_exact(history);
    EXPECT_TRUE(r.ok) << r.error;
}

// Ring-close racing a bulk claim: a bulk enqueue parks between its ticket-
// range F&A and the cell walk while another thread closes the ring under
// it.  Every ticket in the claimed range hits the closed ring's cells
// normally (close only sets tail's MSB); the *next* claim sees CLOSED and
// the batch spills into a fresh ring with nothing lost or reordered.
TEST_F(InjectLcrq, RingCloseStraddlesBulkClaim) {
    LcrqQueue q(tiny_ring(3, 16));  // R = 8
    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(0, Point::kBulkEnqAfterFaa, 1, 1, Point::kRingCloseCas, 1);
    ctl().arm();

    std::vector<verify::ThreadLog> logs;
    logs.emplace_back(0);
    logs.emplace_back(1);

    const std::vector<value_t> batch = {1, 2, 3, 4, 5, 6};
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            // Claims tickets 0..5 with one F&A, then parks holding them.
            logs[0].enqueue_bulk(q, batch);
        } else {
            await([&] { return ctl().visits(0, Point::kBulkEnqAfterFaa) >= 1; });
            logs[1].enqueue(q, 100);  // ticket 6, published before the close
            q.close();                // sets the ring's CLOSED bit under the claim
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    // The close set tail's MSB while T0 held live tickets; those tickets'
    // cells stay writable, so the whole batch lands behind the close with
    // nothing dropped and FIFO intact.
    value_t out[16];
    const std::size_t drained = q.dequeue_bulk(out, 16);
    ASSERT_EQ(drained, batch.size() + 1) << "items lost across the forced close";
    for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(out[i], batch[i]);
    EXPECT_EQ(out[batch.size()], 100u);

    verify::ThreadLog drain_log(2);
    for (std::size_t i = 0; i < drained; ++i) {
        drain_log.ops_mutable().push_back(
            {verify::Operation::Kind::kDequeue, 2, out[i], rdtsc(), rdtsc()});
    }
    logs.push_back(std::move(drain_log));
    const auto history = verify::merge(logs);
    const auto r = verify::check_queue_fast(history);
    EXPECT_TRUE(r.ok) << r.error;
}

// A thread killed mid-enqueue, pre-publish (acceptance (c)): its ticket is
// stolen forever, its hazard slot stays published — exactly what a thread
// descheduled for good leaves behind.  Survivors keep completing
// operations (lock-freedom under the adversary), and because the victim
// died *before* its CAS2 the item never existed: the survivor history is
// complete and must check clean.
TEST_F(InjectLcrq, KilledEnqueuerSurvivorsStayLockFreeAndLinearizable) {
    constexpr std::uint64_t kItems = 50;
    LcrqQueue q(tiny_ring(2, 4));  // R = 4: the hole forces ring turnover
    ctl().kill_at(1, Point::kEnqBeforeCas2, 1);
    ctl().arm();

    std::vector<verify::ThreadLog> logs;
    logs.emplace_back(0);
    logs.emplace_back(1);
    logs.emplace_back(2);
    bool victim_killed = false;

    run_threads(3, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                logs[1].enqueue(q, tag(9, 0));  // dies pre-publish; never recorded
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else if (id == 0) {
            await([&] { return ctl().kills_fired() >= 1; });
            for (std::uint64_t i = 0; i < kItems; ++i) {
                logs[0].enqueue(q, tag(0, i));
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            std::uint64_t received = 0;
            while (received < kItems) {
                if (logs[2].dequeue(q)) ++received;
            }
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    ASSERT_TRUE(logs[1].ops().empty())
        << "a killed enqueue must not be recorded as completed";
    EXPECT_FALSE(q.dequeue().has_value()) << "the dead thread's item surfaced";

    const auto history = verify::merge(logs);
    const auto r = verify::check_queue_fast(history);
    EXPECT_TRUE(r.ok) << r.error;
}

// Segment recycling under a hazard pin, CRQ side (the CAS2 backend; the
// TSan-eligible LSCQ twin and the full commentary live in
// test_injection_pool.cpp).  A dequeuer parks at its EMPTY observation
// holding ring 0 in its hazard slot; a second thread swings head past it,
// retires it, and churns the pool.  The pinned ring must sit on a hazard
// record — never in the pool, never re-issued — until the protector
// finishes; under ASan this doubles as the use-after-free probe for the
// retire-to-pool path.
TEST_F(InjectLcrq, PinnedRingIsWithheldFromPoolUntilProtectorReleases) {
    const auto before = stats::global_snapshot();
    LcrqQueue q(tiny_ring(2, 4));  // R = 4
    // Ring 0 filled (0..3) and tantrum-closed by the 5th enqueue, which
    // seeds ring 1 with item 4; drain ring 0 without swinging head.
    for (value_t v = 0; v < 5; ++v) q.enqueue(v);
    for (value_t v = 0; v < 4; ++v) ASSERT_EQ(q.dequeue().value_or(99), v);
    ASSERT_EQ(q.segment_count(), 2u);

    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(0, Point::kListEmptyObserved, 1, 1, Point::kHazardRetire, 3);
    ctl().arm();

    constexpr int kRounds = 6;
    std::optional<value_t> got0;
    std::vector<value_t> got1;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            got0 = q.dequeue();  // parks at EMPTY, slot 0 = ring 0
        } else {
            await([&] { return ctl().visits(0, Point::kListEmptyObserved) >= 1; });
            if (auto v = q.dequeue()) got1.push_back(*v);  // swings + retires ring 0
            EXPECT_GE(q.hazard_domain().retired_count(), 1u)
                << "ring 0 was freed or pooled despite the parked protector";
            EXPECT_EQ(q.segment_pool().size(), 0u)
                << "the pinned ring leaked into the pool";
            value_t next_in = 5;
            for (int round = 0; round < kRounds; ++round) {
                for (int i = 0; i < 6; ++i) q.enqueue(next_in++);
                for (int i = 0; i < 6; ++i) {
                    if (auto v = q.dequeue()) got1.push_back(*v);
                }
            }
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    const auto d = stats::global_snapshot() - before;
    EXPECT_GE(d[stats::Event::kSegmentReuse], 1u)
        << "churn never recycled — the window tested nothing";

    constexpr value_t kTotal = 5 + 6 * kRounds;
    std::set<value_t> seen;
    for (value_t v = 0; v < 4; ++v) seen.insert(v);
    if (got0.has_value()) {
        EXPECT_TRUE(seen.insert(*got0).second) << *got0;
    }
    for (value_t v : got1) EXPECT_TRUE(seen.insert(v).second) << v;
    while (auto v = q.dequeue()) EXPECT_TRUE(seen.insert(*v).second) << *v;
    EXPECT_EQ(seen.size(), kTotal);

    q.hazard_domain().scan();
    EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    EXPECT_GE(q.segment_pool().size(), 1u);
}

// Seed determinism on the real queue: a fixed single-threaded op sequence
// visits the same points in the same order every run, so the delay stream
// (and its count) is a pure function of the seed.
TEST_F(InjectLcrq, SameSeedSameDelayStreamOnRealQueue) {
    const auto run_once = [&](std::uint64_t seed) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/192);
        ctl().bind_thread(0);
        LcrqQueue q(tiny_ring(1, 1));
        for (value_t v = 1; v <= 16; ++v) q.enqueue(v);
        while (q.dequeue().has_value()) {
        }
        return ctl().delays_injected();
    };
    const std::uint64_t a = run_once(0xfeed);
    EXPECT_GT(a, 0u);
    EXPECT_EQ(run_once(0xfeed), a)
        << "replaying a seed over a deterministic op sequence diverged";
}

// Random perturbation sweep with full history recording: tiny rings force
// constant closes, appends, head swings, and hazard retirements while the
// fast checker audits the recorded history.  A failing seed prints its
// replay line.
TEST_F(InjectLcrq, RandomPerturbationSweepHistoriesStayLinearizable) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 60;
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;

    for (const std::uint64_t seed : test::inject_seeds(0x5eed, 10)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/64);
        LcrqQueue q(tiny_ring(2, 4));  // R = 4: heavy segment churn

        std::vector<verify::ThreadLog> logs;
        for (int t = 0; t < kProducers + kConsumers; ++t) logs.emplace_back(t);
        std::atomic<std::uint64_t> consumed{0};

        run_threads(kProducers + kConsumers, [&](int id) {
            ctl().bind_thread(id);
            if (id < kProducers) {
                for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                    logs[static_cast<std::size_t>(id)].enqueue(
                        q, tag(static_cast<unsigned>(id), i));
                }
            } else {
                auto& log = logs[static_cast<std::size_t>(id)];
                while (consumed.load(std::memory_order_acquire) < kTotal) {
                    if (log.dequeue(q)) {
                        consumed.fetch_add(1, std::memory_order_acq_rel);
                    }
                }
            }
        });

        const auto history = verify::merge(logs);
        const auto r = verify::check_queue_fast(history);
        EXPECT_TRUE(r.ok) << r.error << "\nreplay: " << ctl().replay_hint();
    }
}

// The same sweep through the bulk entry points (one F&A per batch on both
// sides, ticket handback under contention, batches straddling closes).
TEST_F(InjectLcrq, RandomPerturbationSweepBulkHistoriesStayLinearizable) {
    constexpr std::uint64_t kPerProducer = 64;
    constexpr std::size_t kBatch = 8;
    constexpr std::uint64_t kTotal = 2 * kPerProducer;

    for (const std::uint64_t seed : test::inject_seeds(0xb5eed, 8)) {
        ctl().reset();
        ctl().arm_random(seed, 64);
        LcrqQueue q(tiny_ring(2, 4));

        std::vector<verify::ThreadLog> logs;
        for (int t = 0; t < 4; ++t) logs.emplace_back(t);
        std::atomic<std::uint64_t> consumed{0};

        run_threads(4, [&](int id) {
            ctl().bind_thread(id);
            auto& log = logs[static_cast<std::size_t>(id)];
            if (id < 2) {
                std::vector<value_t> batch(kBatch);
                for (std::uint64_t i = 0; i < kPerProducer; i += kBatch) {
                    for (std::size_t j = 0; j < kBatch; ++j) {
                        batch[j] = tag(static_cast<unsigned>(id), i + j);
                    }
                    log.enqueue_bulk(q, batch);
                }
            } else {
                value_t out[kBatch];
                while (consumed.load(std::memory_order_acquire) < kTotal) {
                    const std::size_t n = log.dequeue_bulk(q, out, kBatch);
                    if (n > 0) consumed.fetch_add(n, std::memory_order_acq_rel);
                }
            }
        });

        const auto history = verify::merge(logs);
        const auto r = verify::check_queue_fast(history);
        EXPECT_TRUE(r.ok) << r.error << "\nreplay: " << ctl().replay_hint();
    }
}

}  // namespace
}  // namespace lcrq
