// Schedule injection against the wCQ helping protocol: a requester killed
// inside every slow-path window (counted but not yet published, request
// published, note placed, before commit, after commit), a helper killed
// mid-help, and the production threshold-exhaustion route into the slow
// path.  The acceptance property
// throughout: survivors complete a BOUNDED number of operations and the
// dead thread's request still reaches a decision — that is the wait-free
// claim under the harshest adversary.  The same scenario with the helping
// knob off (`WcqConfig::helping = false`) strands the request, which is
// exactly how the knob serves as the ablation lever: flip `helping` to
// false in the progress test below and it fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "queues/lwcq.hpp"
#include "queues/wcq.hpp"
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

struct InjectWcq : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

// Wait until `cond` holds; the injection schedules make this terminate.
template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// The canonical killed-peer scenario, shared by the progress test and the
// ablation inverse: thread 1 publishes an enqueue request and dies before
// any self-help (first instruction after publication), then thread 0 runs
// a bounded number of plain dequeues.  With helping on, the very first
// dequeue's help scan completes the dead request and the item surfaces;
// with helping off, nothing ever will.
struct KilledPeerOutcome {
    bool victim_killed = false;
    std::optional<std::uint64_t> surfaced;
    std::uint64_t pending_after = 0;
};

KilledPeerOutcome run_killed_requester_at_publish(WcqRing<>& r) {
    ctl().kill_at(1, Point::kWcqReqPublished, 1);
    ctl().arm();

    KilledPeerOutcome out;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.debug_enqueue_slow(3);
            } catch (const ThreadKilled&) {
                out.victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            // Bounded ops: the wait-free claim is that help arrives within
            // one scan, so 64 attempts is already generous.  A hang here
            // would mean survivors are not making progress at all.
            for (int i = 0; i < 64 && !out.surfaced; ++i) {
                out.surfaced = r.dequeue();
            }
        }
    });
    out.pending_after = r.pending_requests();
    return out;
}

// THE acceptance test: a peer's help scan completes a dead requester's
// published enqueue, so its item surfaces to a survivor within bounded
// operations.  Flip `helping` below to false and this test fails — the
// knob is the ablation lever proving the helping layer (not luck) is
// what delivers progress.
TEST_F(InjectWcq, KilledRequesterAtPublishIsRescuedByPeerHelping) {
    WcqRing<> r(2, 0, 0, WcqConfig{/*patience=*/64, /*helping=*/true});
    const auto out = run_killed_requester_at_publish(r);
    EXPECT_TRUE(out.victim_killed);
    EXPECT_EQ(ctl().kills_fired(), 1u);
    ASSERT_TRUE(out.surfaced.has_value())
        << "survivor never saw the dead requester's item: helping failed";
    EXPECT_EQ(*out.surfaced, 3u);
    EXPECT_EQ(out.pending_after, 0u)
        << "the dead request must be driven to completion, not abandoned";
}

// The inverse, pinning the lever: with peer helping disabled the identical
// schedule strands the request forever — the survivor's bounded dequeues
// all come back EMPTY and the request stays pending.  A manual help pass
// then rescues it, showing the ablation only disables the *scan*, not the
// protocol.
TEST_F(InjectWcq, HelpingDisabledAblationStrandsTheKilledRequester) {
    WcqRing<> r(2, 0, 0, WcqConfig{/*patience=*/64, /*helping=*/false});
    const auto out = run_killed_requester_at_publish(r);
    EXPECT_TRUE(out.victim_killed);
    EXPECT_FALSE(out.surfaced.has_value())
        << "with helping off nobody may complete the dead request";
    EXPECT_EQ(out.pending_after, 1u);

    ctl().reset();  // no more kills: the rescue pass must run to completion
    r.help_all();
    EXPECT_EQ(r.pending_requests(), 0u);
    EXPECT_EQ(r.dequeue().value_or(99), 3u)
        << "the stranded item must survive intact once help finally runs";
}

// The owner-mediated reuse rule: helpers finishing a dead requester's
// request leave the record DONE with the result frozen in arg/val, and
// only the owner (who is gone) may release it back to IDLE.  A thread
// that later lands on the same slot — here by recycling the dead pair's
// dense thread ids — must get a record collision and fall back to the
// fast path, never acquire the record: handing it over would let the new
// request overwrite arg/val underneath a requester that has not copied
// its result out yet (garbage dequeue indices, kClosed misread as kOk at
// >64 live threads).
TEST_F(InjectWcq, CompletedDeadRequestersRecordRefusesReuse) {
    WcqRing<> r(2, 0, 0, WcqConfig{/*patience=*/64, /*helping=*/true});
    const auto out = run_killed_requester_at_publish(r);
    EXPECT_TRUE(out.victim_killed);
    ASSERT_TRUE(out.surfaced.has_value());
    EXPECT_EQ(out.pending_after, 0u);

    // The dead requester's record: finished by helpers but never released.
    int done_slots = 0;
    for (std::size_t s = 0; s < kWcqSlots; ++s) {
        done_slots += r.debug_record_state(s) == 2 ? 1 : 0;  // kStDone
    }
    EXPECT_EQ(done_slots, 1) << "exactly the dead owner's record stays DONE";

    ctl().reset();
    // Two fresh threads reacquire the dense ids the dead pair freed, so
    // between them they cover the victim's slot (DONE, never released —
    // must collide) and a free one (IDLE — must work).  Each holds its
    // thread id until both have run: dense ids are only distinct among
    // concurrently live threads, and letting the first exit early would
    // hand its id (and slot) to the second.
    std::atomic<int> collisions{0};
    std::atomic<int> successes{0};
    std::atomic<int> finished{0};
    run_threads(2, [&](int) {
        const auto res = r.debug_enqueue_slow(1);
        if (!res.has_value()) {
            collisions.fetch_add(1);
        } else {
            EXPECT_EQ(*res, EnqueueResult::kOk);
            successes.fetch_add(1);
        }
        finished.fetch_add(1);
        while (finished.load() < 2) std::this_thread::yield();
    });
    EXPECT_EQ(collisions.load(), 1)
        << "the dead owner's completed record must stay retired";
    EXPECT_EQ(successes.load(), 1);
    EXPECT_EQ(r.dequeue().value_or(99), 1u);
    EXPECT_FALSE(r.dequeue().has_value());

    // Recycling the ring (what the segment pool does) scrubs every record,
    // wherever record(s) places it: the retired slot is usable again, so
    // the same two dense ids now both get through.
    r.reset();
    for (std::size_t s = 0; s < kWcqSlots; ++s) {
        EXPECT_EQ(r.debug_record_state(s), 0u) << "slot " << s;  // kStIdle
    }
    collisions = 0;
    successes = 0;
    finished = 0;
    run_threads(2, [&](int id) {
        const auto res = r.debug_enqueue_slow(static_cast<std::uint64_t>(2 + id));
        if (!res.has_value()) {
            collisions.fetch_add(1);
        } else {
            EXPECT_EQ(*res, EnqueueResult::kOk);
            successes.fetch_add(1);
        }
        finished.fetch_add(1);
        while (finished.load() < 2) std::this_thread::yield();
    });
    EXPECT_EQ(collisions.load(), 0) << "reset must release the dead slot";
    EXPECT_EQ(successes.load(), 2);
    std::vector<std::uint64_t> got;
    while (auto v = r.dequeue()) got.push_back(*v);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::uint64_t>{2, 3}));
}

// Window 0 — counted but not yet published: the requester dies between
// bumping the pending-request counter and storing the req word, so the
// request never became visible and nothing is recoverable.  The
// obligations are the negative ones: the counter stays exactly one high
// forever (an over-count, never an underflow — the reverse ordering would
// let a later helper retire an orphan the counter never admitted and wrap
// it to 2^64-1), the empty help scans that over-count triggers complete
// without finding anything, and the ring keeps serving survivors.
TEST_F(InjectWcq, KilledRequesterBetweenCountAndPublishOnlyOvercounts) {
    WcqRing<> r(2);
    ctl().kill_at(1, Point::kWcqSlowCounted, 1);
    ctl().arm();

    bool victim_killed = false;
    bool survivor_done = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.debug_enqueue_slow(3);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            // Every one of these ops sees the nonzero counter and runs a
            // help scan first; the scan must find nothing (the record is
            // stuck claimed, not pending) and the op must still succeed.
            for (std::uint64_t i = 0; i < 8; ++i) {
                ASSERT_EQ(r.enqueue(i % 4), EnqueueResult::kOk);
                ASSERT_EQ(r.dequeue().value_or(99), i % 4);
            }
            survivor_done = true;
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_TRUE(survivor_done);
    EXPECT_EQ(r.pending_requests(), 1u)
        << "the documented over-count: one high, never underflowed";
    ctl().reset();
    r.help_all();  // a manual rescue pass must not retire the phantom
    EXPECT_EQ(r.pending_requests(), 1u);
    EXPECT_FALSE(r.dequeue().has_value())
        << "the unpublished enqueue must never surface";
}

// Window 2 — help in flight: the requester dies right after turning a cell
// into a note (tail not yet fixed, commit word untouched).  A survivor's
// help scan must adopt the note, fix the tail, commit, and materialize the
// item.
TEST_F(InjectWcq, KilledRequesterMidNotePlacementIsResolved) {
    WcqRing<> r(2);
    ctl().kill_at(1, Point::kWcqNotePlaced, 1);
    ctl().arm();

    bool victim_killed = false;
    std::optional<std::uint64_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.debug_enqueue_slow(1);  // dies with its note in the ring
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            for (int i = 0; i < 64 && !got; ++i) got = r.dequeue();
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(got.value_or(99), 1u) << "the noted item was lost";
    EXPECT_EQ(r.pending_requests(), 0u);
    EXPECT_FALSE(r.dequeue().has_value()) << "and it must surface exactly once";
}

// Window 3 — note placed and tail fixed, killed one instruction before the
// commit CAS.  The undecided note must be committed by the resolver, never
// reverted (reverting here would strand the request forever).
TEST_F(InjectWcq, KilledRequesterBeforeCommitIsResolved) {
    WcqRing<> r(2);
    ctl().kill_at(1, Point::kWcqBeforeCommit, 1);
    ctl().arm();

    bool victim_killed = false;
    std::optional<std::uint64_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.debug_enqueue_slow(2);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            for (int i = 0; i < 64 && !got; ++i) got = r.dequeue();
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(got.value_or(99), 2u);
    EXPECT_EQ(r.pending_requests(), 0u);
}

// Window 4 — killed right after winning the commit CAS, before cleanup:
// the linearization point has passed but the cell is still a note and the
// request still counts as pending.  Helpers must finish the cleanup and
// the done transition; the item surfaces exactly once.
TEST_F(InjectWcq, KilledRequesterAfterCommitStillMaterializes) {
    WcqRing<> r(2);
    ctl().kill_at(1, Point::kWcqCommitted, 1);
    ctl().arm();

    bool victim_killed = false;
    std::optional<std::uint64_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.debug_enqueue_slow(3);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            for (int i = 0; i < 64 && !got; ++i) got = r.dequeue();
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(got.value_or(99), 3u);
    EXPECT_EQ(r.pending_requests(), 0u);
    EXPECT_FALSE(r.dequeue().has_value())
        << "a committed-then-killed enqueue must not be applied twice";
}

// The helper dies too: requester killed at publication, then the FIRST
// helper killed just after placing the requester's note.  A third thread
// must be able to pick up the half-done help (adopt the foreign note,
// commit, clean up).  Two corpses, one survivor, zero lost items.
TEST_F(InjectWcq, KilledHelperLeavesANoteOthersResolve) {
    WcqRing<> r(2);
    ctl().kill_at(1, Point::kWcqReqPublished, 1);
    ctl().kill_at(2, Point::kWcqNotePlaced, 1);
    ctl().arm();

    std::atomic<int> killed{0};
    std::optional<std::uint64_t> got;
    run_threads(3, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.debug_enqueue_slow(1);
            } catch (const ThreadKilled&) {
                killed.fetch_add(1);
            }
        } else if (id == 2) {
            await([&] { return ctl().kills_fired() >= 1; });
            try {
                // This dequeue's help scan places the dead requester's
                // note — and dies on that very instruction.
                (void)r.dequeue();
            } catch (const ThreadKilled&) {
                killed.fetch_add(1);
            }
        } else {
            await([&] { return ctl().kills_fired() >= 2; });
            for (int i = 0; i < 64 && !got; ++i) got = r.dequeue();
        }
    });

    EXPECT_EQ(killed.load(), 2);
    EXPECT_EQ(got.value_or(99), 1u) << "third thread failed to finish the help";
    EXPECT_EQ(r.pending_requests(), 0u);
}

// A dead dequeuer is completed too — here as EMPTY, decided during a
// survivor's unrelated operation.  The dead request must not linger and
// must not steal the item the survivor enqueues afterwards.
TEST_F(InjectWcq, KilledDequeuerRequestCompletesAsEmptyDuringPeerOps) {
    WcqRing<> r(2);
    ctl().kill_at(1, Point::kWcqReqPublished, 1);
    ctl().arm();

    bool victim_killed = false;
    std::optional<std::uint64_t> got;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            std::optional<std::uint64_t> out;
            try {
                (void)r.debug_dequeue_slow(out);
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            // The enqueue's help scan runs first, so the dead dequeue is
            // decided (EMPTY — the ring held nothing when it was issued)
            // before this item becomes visible.
            ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
            got = r.dequeue();
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(r.pending_requests(), 0u)
        << "the dead dequeue must be decided by the peer's help scan";
    EXPECT_EQ(got.value_or(99), 2u)
        << "an EMPTY-decided dead dequeue must not consume the later item";
    EXPECT_FALSE(r.dequeue().has_value());
}

// The production route into the window: no debug hook.  A burned enqueue
// ticket (dead F&A, never published) makes the fast dequeue path miss and
// burn threshold, and with zero patience the very first miss routes into
// dequeue_slow — where the thread dies at publication.  The peer's help
// then delivers the live item to the DEAD request (its dequeue completes),
// and the queue keeps working for the survivor.
TEST_F(InjectWcq, ThresholdExhaustionRoutesIntoSlowPathKilledThereStillDrains) {
    WcqRing<> r(2, 0, 0, WcqConfig{/*patience=*/0, /*helping=*/true});
    (void)r.debug_take_enqueue_ticket();           // hole at ticket 0
    ASSERT_EQ(r.enqueue(1), EnqueueResult::kOk);   // real item at ticket 1
    ctl().kill_at(1, Point::kWcqReqPublished, 1);
    ctl().arm();

    bool victim_killed = false;
    std::optional<std::uint64_t> first, second;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            try {
                (void)r.dequeue();  // fast miss on the hole -> slow -> dies
            } catch (const ThreadKilled&) {
                victim_killed = true;
            }
        } else {
            await([&] { return ctl().kills_fired() >= 1; });
            first = r.dequeue();  // help first: item 1 goes to the corpse
            ASSERT_EQ(r.enqueue(2), EnqueueResult::kOk);
            second = r.dequeue();
        }
    });

    EXPECT_TRUE(victim_killed);
    EXPECT_EQ(ctl().visits(1, Point::kScqThresholdDecrement), 1u)
        << "the victim must have reached the slow path via a genuine miss";
    EXPECT_EQ(r.pending_requests(), 0u);
    EXPECT_FALSE(first.has_value())
        << "item 1 was delivered to the dead dequeue request, not to us";
    EXPECT_EQ(second.value_or(99), 2u) << "the ring must keep working";
}

// The list's kept-slot path on LwCQ (test_injection_scq.cpp has the LSCQ
// twin): an enqueuer killed at the entry CAS that publishes the slot its
// last dequeue kept loses exactly that slot, survivors keep FIFO order,
// and the dead item never surfaces.  wCQ consumes with a CAS, so the
// victim's fourth entry CAS is the kept slot's publish.
TEST_F(InjectWcq, KilledEnqueuerOnTheKeptSlotPathLeaksOneSlot) {
    QueueOptions opt;
    opt.ring_order = 2;  // capacity 4
    LwcqQueue q(opt);
    ctl().kill_at(1, Point::kScqBeforeEntryCas, 4);
    ctl().arm();

    bool victim_killed = false;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 1) {
            q.enqueue(9);  // fq consume, aq publish
            EXPECT_EQ(q.dequeue().value_or(0), 9u);  // aq consume; keeps the slot
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

// Seeded random sweep on the bounded wCQ value queue with an impatient
// configuration, so delays constantly push operations through the helping
// path: full accounting, FIFO per producer, and no request may be left
// pending at the end.
TEST_F(InjectWcq, RandomPerturbationSweepBoundedWcq) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 300;

    for (const std::uint64_t seed : test::inject_seeds(0x3c9, 8)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/96);
        QueueOptions opt;
        opt.bounded_order = 4;  // capacity 16: constant backpressure
        opt.wcq_patience = 1;   // one failed round and we publish a request
        WcqQueue q(opt);

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
        EXPECT_EQ(q.base().allocated_ring().pending_requests(), 0u);
        EXPECT_EQ(q.base().free_ring().pending_requests(), 0u);
    }
}

// The LwCQ list under the same sweep with tiny segments: closes, appends,
// head swings, and pool recycling all interleave with helping — hazard
// reclamation must still leave nothing retired.
TEST_F(InjectWcq, RandomPerturbationSweepLwcqTinySegments) {
    constexpr std::uint64_t kPerProducer = 300;

    for (const std::uint64_t seed : test::inject_seeds(0x13c9, 8)) {
        ctl().reset();
        ctl().arm_random(seed, 96);
        QueueOptions opt;
        opt.ring_order = 2;  // segment capacity 4: constant turnover
        opt.wcq_patience = 1;
        LwcqQueue q(opt);

        const std::uint64_t total = 2 * kPerProducer;
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(2);

        run_threads(4, [&](int id) {
            ctl().bind_thread(id);
            if (id < 2) {
                for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                    q.enqueue(tag(static_cast<unsigned>(id), i));
                }
            } else {
                auto& mine = received[static_cast<std::size_t>(id - 2)];
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
        test::expect_exchange_valid(received, 2, kPerProducer);
        q.hazard_domain().scan();
        EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    }
}

}  // namespace
}  // namespace lcrq
