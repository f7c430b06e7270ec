// Schedule injection against the real Crq hot paths: deterministic window
// forcing for the transitions real-thread tests only hit by luck (unsafe
// transition, bulk ticket-handback contention, a ticket stolen by a killed
// enqueuer, the spin-wait's en-route window on an open and a closed ring),
// plus seed-replayable random sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "queues/crq.hpp"
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
using test::tag_producer;
using test::tag_seq;

Controller& ctl() { return Controller::instance(); }

struct InjectCrq : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

QueueOptions tiny_ring(unsigned order, unsigned starvation = 16) {
    QueueOptions opt;
    opt.ring_order = order;
    opt.starvation_limit = starvation;
    opt.spin_wait_iters = 0;  // spin-wait would absorb the forced windows
    return opt;
}

// Wait until `cond` holds; the injection schedules make this terminate.
template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// A dequeuer parked on its ticket while the ring laps it: the overtaking
// dequeuer must take the *unsafe transition* on the occupied cell (paper
// fig. 3b line 66), and the parked dequeuer still gets its item.  This is
// the window the exhaustive model tests enumerate; here it is forced on
// the production code, deterministically.
TEST_F(InjectCrq, UnsafeTransitionWindowIsForcedDeterministically) {
    Crq<> q(tiny_ring(1));  // R = 2
    ctl().set_hold_deadline(std::chrono::seconds{10});
    // T1 parks right after claiming dequeue ticket 0 until T0 has burned
    // three dequeue tickets of its own (h = 1, 2, 3).
    ctl().hold_until(1, Point::kDeqAfterFaa, 1, 0, Point::kDeqAfterFaa, 3);
    ctl().arm();

    q.try_enqueue(1);  // cell 0
    q.try_enqueue(2);  // cell 1

    std::optional<value_t> parked;
    std::optional<value_t> overtaker1;
    std::optional<value_t> overtaker2;
    std::optional<value_t> overtaker3;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            parked = q.dequeue();  // ticket 0, parked mid-operation
        } else {
            // Wait for T1 to hold ticket 0, then lap it.
            await([&] { return ctl().visits(1, Point::kDeqAfterFaa) >= 1; });
            overtaker1 = q.dequeue();  // h=1: takes 2
            overtaker2 = q.dequeue();  // h=2: unsafe transition on cell 0, EMPTY
            overtaker3 = q.dequeue();  // h=3: EMPTY (and releases T1)
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    ASSERT_TRUE(overtaker1.has_value());
    EXPECT_EQ(*overtaker1, 2u);
    EXPECT_FALSE(overtaker2.has_value());
    EXPECT_FALSE(overtaker3.has_value());
    ASSERT_TRUE(parked.has_value()) << "parked dequeuer lost its item";
    EXPECT_EQ(*parked, 1u);
    EXPECT_GE(ctl().visits(0, Point::kDeqBeforeUnsafeCas2), 1u)
        << "the overtaker never reached the unsafe transition";

    // The forced schedule is linearizable: the parked dequeue spans the
    // overtaker's operations, so deq(1) linearizes before deq(2).
    verify::History h;
    std::uint64_t ts = 0;
    const auto op = [&](verify::Operation::Kind k, int thread, value_t v) {
        const std::uint64_t invoke = ++ts;
        const std::uint64_t response = ++ts;
        h.push_back({k, thread, v, invoke, response});
    };
    op(verify::Operation::Kind::kEnqueue, 0, 1);
    op(verify::Operation::Kind::kEnqueue, 0, 2);
    const std::uint64_t parked_invoke = ++ts;
    op(verify::Operation::Kind::kDequeue, 0, *overtaker1);
    op(verify::Operation::Kind::kDequeue, 0, verify::kEmpty);
    op(verify::Operation::Kind::kDequeue, 0, verify::kEmpty);
    h.push_back({verify::Operation::Kind::kDequeue, 1, *parked, parked_invoke, ++ts});
    const auto r = verify::check_queue_exact(h);
    EXPECT_TRUE(r.ok) << r.error;
}

// dequeue_bulk hands unspent tickets back with a CAS that must fail if any
// later ticket was issued.  Force exactly that: park the bulk dequeuer at
// the handback, let a single dequeuer claim a later ticket, and check the
// bulk op spends (rather than leaks) its remainder.
TEST_F(InjectCrq, BulkTicketHandbackLosesRaceAndSpendsTickets) {
    Crq<> q(tiny_ring(3));  // R = 8
    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(0, Point::kBulkTicketReturn, 1, 1, Point::kDeqAfterFaa, 1);
    ctl().arm();

    q.try_enqueue(1);
    q.try_enqueue(2);

    value_t out[4] = {};
    std::size_t got = 0;
    std::optional<value_t> single;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            // Claims tickets 0..3, takes 1 and 2, burns ticket 2, and parks
            // at the handback of tickets 3..3 (expecting head == 4).
            got = q.dequeue_bulk(out, 4);
        } else {
            await([&] { return ctl().visits(0, Point::kBulkTicketReturn) >= 1; });
            single = q.dequeue();  // ticket 4: head moves to 5, CAS must fail
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    ASSERT_EQ(got, 2u);
    EXPECT_EQ(out[0], 1u);
    EXPECT_EQ(out[1], 2u);
    EXPECT_FALSE(single.has_value());
    EXPECT_EQ(ctl().visits(0, Point::kBulkTicketReturn), 1u);
    // Ticket 3 could not be handed back (head was already 5) and was spent
    // as an empty transition; no ticket leaked to strand a later item.
    EXPECT_EQ(q.head_index(), 5u);
    q.try_enqueue(3);
    const auto v = q.dequeue();
    ASSERT_TRUE(v.has_value()) << "a leaked ticket stranded the item";
    EXPECT_EQ(*v, 3u);
}

// The uncontended sibling: no later ticket is issued, so the handback CAS
// succeeds and the unspent tickets are re-issued to later operations.
TEST_F(InjectCrq, BulkTicketHandbackSucceedsUncontended) {
    Crq<> q(tiny_ring(3));  // R = 8
    ctl().arm();            // counting only; no rules
    ctl().bind_thread(0);

    q.try_enqueue(1);
    q.try_enqueue(2);
    value_t out[6] = {};
    const std::size_t got = q.dequeue_bulk(out, 6);
    ASSERT_EQ(got, 2u);
    EXPECT_EQ(ctl().visits(0, Point::kBulkTicketReturn), 1u);
    // Tickets 3..5 were returned: head sits at 3 (ticket 2 was burned
    // observing empty), not at the claim end 6.
    EXPECT_EQ(q.head_index(), 3u);
}

// A thread killed between its tail F&A and the CAS2 publish models the
// adversary of the nonblocking proofs: ticket 0 is claimed forever but no
// item appears.  Survivors must poison past the hole and lose nothing.
TEST_F(InjectCrq, KilledEnqueuerLeavesHoleSurvivorsPoisonPast) {
    Crq<> q(tiny_ring(3));  // R = 8
    ctl().kill_at(1, Point::kEnqBeforeCas2, 1);
    ctl().arm();

    bool victim_killed = false;
    std::vector<value_t> survivor_got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                q.try_enqueue(99);  // dies holding ticket 0
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
            ASSERT_EQ(q.try_enqueue(2), EnqueueResult::kOk);
            for (int i = 0; i < 3; ++i) {
                if (auto v = q.dequeue()) survivor_got.push_back(*v);
            }
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    // The hole at ticket 0 was poisoned past; 99 must never surface.
    ASSERT_EQ(survivor_got.size(), 2u) << "survivors failed to make progress";
    EXPECT_EQ(survivor_got[0], 1u);
    EXPECT_EQ(survivor_got[1], 2u);
    EXPECT_FALSE(q.dequeue().has_value());
}

// The window the §4.1.1 spin-wait is for: enq_0 holds ticket 0 but has not
// touched its cell when deq_0 finds the cell empty.  The enqueuer is held
// past its F&A until the dequeuer reaches the empty transition, so the
// wait cannot end early and its length is exact.  Every schedule after
// the release ends the same way: if the enqueuer read its cell before the
// poison landed, a second hold keeps its CAS2 until the first dequeue is
// over, and starvation limit 1 makes the failed ticket close the ring
// instead of drawing a new one the dequeuer would wait on.  Returns the
// spin-waits recorded.
std::uint64_t spin_waits_in_window(bool close_while_held) {
    QueueOptions opt = tiny_ring(3, /*starvation=*/1);  // R = 8
    opt.spin_wait_iters = 8;
    Crq<> q(opt);
    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(1, Point::kEnqAfterFaa, 1, 0, Point::kDeqBeforeEmptyCas2, 1);
    ctl().hold_until(1, Point::kEnqBeforeCas2, 1, 0, Point::kDeqAfterFaa, 2);
    ctl().arm();

    const stats::Snapshot before = stats::global_snapshot();
    EnqueueResult enq = EnqueueResult::kOk;
    std::optional<value_t> first;
    std::optional<value_t> second;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            enq = q.try_enqueue(7);  // ticket 0, held before its cell
        } else {
            await([&] { return ctl().visits(1, Point::kEnqAfterFaa) >= 1; });
            if (close_while_held) q.close();
            first = q.dequeue();   // ticket 0: [waits, then] poisons
            second = q.dequeue();  // ticket 1: releases a held CAS2
        }
    });
    const std::uint64_t spins = test::spin_waits_since(before);

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_EQ(enq, EnqueueResult::kClosed);
    EXPECT_FALSE(first.has_value());
    EXPECT_FALSE(second.has_value());
    EXPECT_FALSE(q.dequeue().has_value()) << "a refused item surfaced";
    return spins;
}

// On an open ring the en-route enqueuer gets the full wait.
TEST_F(InjectCrq, SpinWaitOnOpenRingWaitsForEnRouteEnqueuer) {
    EXPECT_EQ(spin_waits_in_window(/*close_while_held=*/false), 8u);
}

// Closed while the enqueuer is held: the dequeuer poisons at once, even
// though this enqueuer drew its ticket before the close.  The tickets past
// a close are dead, and the gate does not tell them from the few
// pre-close ones still in flight.
TEST_F(InjectCrq, SpinWaitSkippedOnceRingCloses) {
    EXPECT_EQ(spin_waits_in_window(/*close_while_held=*/true), 0u);
}

// Random perturbation sweep on the raw ring.  The CRQ is a tantrum queue:
// an enqueue may return CLOSED, so validation is accounting-based — every
// successfully-enqueued value is dequeued exactly once, FIFO per producer.
TEST_F(InjectCrq, RandomPerturbationSweepKeepsAccounting) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 200;

    for (const std::uint64_t seed : test::inject_seeds(0xc1c1, 10)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/96);
        Crq<> q(tiny_ring(10, /*starvation=*/1u << 20));  // R=1024, no tantrums

        std::atomic<std::uint64_t> enq_ok{0};
        std::atomic<int> producers_done{0};
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(kConsumers);
        std::vector<std::uint64_t> sent(kProducers, 0);

        run_threads(kProducers + kConsumers, [&](int id) {
            ctl().bind_thread(id);
            if (id < kProducers) {
                for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                    if (q.try_enqueue(tag(static_cast<unsigned>(id), i)) !=
                        EnqueueResult::kOk) {
                        break;  // tantrum: accounted below
                    }
                    ++sent[static_cast<std::size_t>(id)];
                    enq_ok.fetch_add(1, std::memory_order_acq_rel);
                }
                producers_done.fetch_add(1, std::memory_order_acq_rel);
            } else {
                auto& mine = received[static_cast<std::size_t>(id - kProducers)];
                for (;;) {
                    if (auto v = q.dequeue()) {
                        mine.push_back(*v);
                        consumed.fetch_add(1, std::memory_order_acq_rel);
                    } else if (producers_done.load(std::memory_order_acquire) ==
                                   kProducers &&
                               consumed.load(std::memory_order_acquire) ==
                                   enq_ok.load(std::memory_order_acquire)) {
                        break;
                    } else {
                        std::this_thread::yield();
                    }
                }
            }
        });

        SCOPED_TRACE("replay: " + ctl().replay_hint());
        test::expect_exchange_valid_partial(received, kProducers);
        std::uint64_t total = 0;
        for (const auto& c : received) total += c.size();
        EXPECT_EQ(total, enq_ok.load()) << "accepted items lost or duplicated";
        for (int p = 0; p < kProducers; ++p) {
            EXPECT_EQ(sent[static_cast<std::size_t>(p)], kPerProducer)
                << "ring unexpectedly closed under delays alone";
        }
    }
}

// The bulk paths under the same sweep: one F&A per batch on both sides.
TEST_F(InjectCrq, RandomPerturbationSweepBulkPaths) {
    constexpr std::uint64_t kPerProducer = 192;
    constexpr std::size_t kBatch = 16;

    for (const std::uint64_t seed : test::inject_seeds(0xb07c, 8)) {
        ctl().reset();
        ctl().arm_random(seed, 96);
        Crq<> q(tiny_ring(10, 1u << 20));

        std::atomic<std::uint64_t> enq_ok{0};
        std::atomic<int> producers_done{0};
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
                    const std::size_t n = q.try_enqueue_bulk(batch).done;
                    enq_ok.fetch_add(n, std::memory_order_acq_rel);
                    if (n < kBatch) break;  // closed mid-batch
                }
                producers_done.fetch_add(1, std::memory_order_acq_rel);
            } else {
                auto& mine = received[static_cast<std::size_t>(id - 2)];
                value_t out[kBatch];
                for (;;) {
                    const std::size_t n = q.dequeue_bulk(out, kBatch);
                    if (n > 0) {
                        mine.insert(mine.end(), out, out + n);
                        consumed.fetch_add(n, std::memory_order_acq_rel);
                    } else if (producers_done.load(std::memory_order_acquire) == 2 &&
                               consumed.load(std::memory_order_acquire) ==
                                   enq_ok.load(std::memory_order_acquire)) {
                        break;
                    } else {
                        std::this_thread::yield();
                    }
                }
            }
        });

        SCOPED_TRACE("replay: " + ctl().replay_hint());
        test::expect_exchange_valid_partial(received, 2);
        std::uint64_t total = 0;
        for (const auto& c : received) total += c.size();
        EXPECT_EQ(total, enq_ok.load()) << "bulk paths lost or duplicated items";
    }
}

}  // namespace
}  // namespace lcrq
