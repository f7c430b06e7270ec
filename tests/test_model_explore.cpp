// Schedule exploration of the CRQ step model: exhaustive enumeration of
// every interleaving for tiny configurations (the executable form of the
// paper's §4.1.2 argument, covering the safe-bit corner cases real-thread
// tests cannot reach deterministically), random sampling for larger ones,
// and a differential check that the model matches the real Crq.  Also the
// facade's notify handshake (verify/notify_model.hpp), explored whole.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "queues/crq.hpp"
#include "queues/lcrq.hpp"
#include "queues/scq.hpp"
#include "queues/wcq.hpp"
#include "verify/lcrq_model.hpp"
#include "verify/explore.hpp"
#include "verify/notify_model.hpp"

namespace lcrq::verify {
namespace {

// --- model vs real implementation, sequentially --------------------------

TEST(CrqModel, MatchesRealCrqSequentially) {
    // Random op sequences through the model and the real queue must agree
    // on every result, including CLOSED.
    Xoshiro256 rng(99);
    for (int round = 0; round < 50; ++round) {
        const unsigned order = 1 + static_cast<unsigned>(rng.bounded(2));  // R=2/4
        const unsigned limit = 1 + static_cast<unsigned>(rng.bounded(3));
        QueueOptions opt;
        opt.ring_order = order;
        opt.starvation_limit = limit;
        opt.spin_wait_iters = 0;  // the model does not model the spin-wait
        Crq<> real(opt);
        CrqModelState model_state(std::uint64_t{1} << order);

        value_t next = 1;
        for (int i = 0; i < 60; ++i) {
            const bool is_enq = rng.bounded(2) == 0;
            if (is_enq) {
                CrqModelOp op = make_model_op(CrqModelOp::Kind::kEnqueue, next, limit);
                while (op.step(model_state) == CrqModelOp::Status::kRunning) {
                }
                const auto real_result = real.try_enqueue(next);
                const bool model_ok = op.result() != CrqModelOp::kClosedResult;
                ASSERT_EQ(model_ok, real_result == EnqueueResult::kOk)
                    << "round " << round << " op " << i;
                ++next;
            } else {
                CrqModelOp op = make_model_op(CrqModelOp::Kind::kDequeue, 0, limit);
                while (op.step(model_state) == CrqModelOp::Status::kRunning) {
                }
                const auto real_result = real.dequeue();
                if (op.result() == kEmpty) {
                    ASSERT_FALSE(real_result.has_value())
                        << "round " << round << " op " << i;
                } else {
                    ASSERT_TRUE(real_result.has_value());
                    ASSERT_EQ(*real_result, op.result());
                }
            }
            // Shared state must track the real queue's indices exactly.
            ASSERT_EQ(model_state.head, real.head_index());
            ASSERT_EQ(model_state.tail & ~CrqModelState::kMsb, real.tail_index());
            ASSERT_EQ(model_state.closed(), real.closed());
        }
    }
}

TEST(LcrqModel, MatchesRealLcrqSequentially) {
    // The list-layer model must agree with the real Lcrq operation by
    // operation, including segment turnover under tiny rings.
    Xoshiro256 rng(123);
    for (int round = 0; round < 30; ++round) {
        const unsigned limit = 1 + static_cast<unsigned>(rng.bounded(3));
        QueueOptions opt;
        opt.ring_order = 1;  // R = 2
        opt.starvation_limit = limit;
        opt.spin_wait_iters = 0;
        LcrqQueue real(opt);
        LcrqModelState model(2);

        value_t next = 1;
        for (int i = 0; i < 80; ++i) {
            if (rng.bounded(2) == 0) {
                auto op = make_lcrq_model_op(LcrqModelOp::Kind::kEnqueue, next,
                                             limit, /*corrected=*/true);
                while (op.step(model) == CrqModelOp::Status::kRunning) {
                }
                real.enqueue(next);
                ASSERT_NE(op.result(), kEmpty);
                ++next;
            } else {
                auto op = make_lcrq_model_op(LcrqModelOp::Kind::kDequeue, 0, limit,
                                             /*corrected=*/true);
                while (op.step(model) == CrqModelOp::Status::kRunning) {
                }
                const auto real_result = real.dequeue();
                if (op.result() == kEmpty) {
                    ASSERT_FALSE(real_result.has_value()) << "round " << round;
                } else {
                    ASSERT_TRUE(real_result.has_value()) << "round " << round;
                    ASSERT_EQ(*real_result, op.result());
                }
            }
        }
        // Live segment counts agree (model keeps drained ones; compare the
        // reachable suffix only).
        ASSERT_EQ(model.segments.size() - model.head_seg, real.segment_count())
            << "round " << round;
    }
}

// --- exhaustive interleaving enumeration ----------------------------------

ExploreConfig tiny(std::uint64_t ring = 2, unsigned limit = 1) {
    ExploreConfig cfg;
    cfg.ring_size = ring;
    cfg.starvation_limit = limit;
    return cfg;
}

TEST(Explore, ExhaustiveOneEnqOneDeq) {
    const auto r = explore_exhaustive({{enq_op(1)}, {deq_op()}}, tiny());
    EXPECT_FALSE(r.truncated) << "grew past the exhaustive budget: " << r.summary();
    // pruned == 0 proves "every interleaving" means *every*: the CRQ model
    // has no livelock, so any pruning would mean max_steps silently cut
    // branches out of the proof.
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
    EXPECT_GT(r.schedules, 50u) << "suspiciously few interleavings: " << r.summary();
}

TEST(Explore, ExhaustiveTwoEnqueuersOneSlotEach) {
    const auto r = explore_exhaustive({{enq_op(1)}, {enq_op(2)}}, tiny());
    EXPECT_FALSE(r.truncated) << r.summary();
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

TEST(Explore, ExhaustiveTwoDequeuersOnEmpty) {
    const auto r = explore_exhaustive({{deq_op()}, {deq_op()}}, tiny());
    EXPECT_FALSE(r.truncated) << r.summary();
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

TEST(Explore, ExhaustiveEnqDeqPairVsDequeuer) {
    // The schedule family that exercises the unsafe transition: a dequeuer
    // can overtake the enqueuer that owns its index.
    const auto r =
        explore_exhaustive({{enq_op(1), deq_op()}, {deq_op()}}, tiny());
    EXPECT_FALSE(r.truncated) << r.summary();
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
    EXPECT_GT(r.schedules, 1'000u) << r.summary();
}

TEST(Explore, ExhaustiveTwoEnqueuersThenDrain) {
    // R = 2, two racing enqueuers with starvation limit 1 (closes fire on
    // the first failed round), then one thread drains: wraps + closes are
    // inside the enumerated window.
    const auto r =
        explore_exhaustive({{enq_op(1)}, {enq_op(2), deq_op()}}, tiny(2, 1));
    EXPECT_FALSE(r.truncated) << r.summary();
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
    EXPECT_GT(r.schedules, 1'000u) << r.summary();
}

TEST(Explore, DenseSamplingRingOfOneLapThreeThreads) {
    // Three single-op threads explode combinatorially past the exhaustive
    // budget; sample that configuration densely instead.
    ExploreConfig cfg = tiny(2, 1);
    cfg.samples = 100'000;
    cfg.seed = 3;
    const auto r = explore_random({{enq_op(1)}, {enq_op(2)}, {deq_op()}}, cfg);
    EXPECT_EQ(r.schedules, 100'000u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

// --- random sampling for larger configurations ----------------------------

TEST(Explore, RandomSamplingLargerScripts) {
    ExploreConfig cfg = tiny(2, 2);
    cfg.samples = 20'000;
    cfg.seed = 7;
    const auto r = explore_random(
        {{enq_op(1), enq_op(2), deq_op()}, {deq_op(), enq_op(3), deq_op()}}, cfg);
    EXPECT_EQ(r.schedules, 20'000u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

TEST(Explore, RandomSamplingThreeThreads) {
    ExploreConfig cfg = tiny(4, 2);
    cfg.samples = 10'000;
    cfg.seed = 21;
    const auto r = explore_random({{enq_op(1), deq_op()},
                                   {enq_op(2), deq_op()},
                                   {deq_op(), enq_op(3)}},
                                  cfg);
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

// --- the explorer must be able to see a bug -------------------------------

TEST(Explore, DetectsABrokenModel) {
    // Feed the checker an execution from a *wrong* schedule source: two
    // enqueues then dequeues in reversed order cannot slip past
    // check_execution.  (Guards the plumbing, not the model.)
    History h;
    h.push_back({Operation::Kind::kEnqueue, 0, 1, 1, 2});
    h.push_back({Operation::Kind::kEnqueue, 0, 2, 3, 4});
    h.push_back({Operation::Kind::kDequeue, 1, 2, 5, 6});
    h.push_back({Operation::Kind::kDequeue, 1, 1, 7, 8});
    EXPECT_FALSE(detail_explore::check_execution(h).ok);
}

TEST(Explore, TantrumRuleIsEnforced) {
    // Enqueue succeeding strictly after another enqueue's CLOSED response
    // must be flagged even though the FIFO part is fine.
    History h;
    h.push_back({Operation::Kind::kEnqueue, 0, CrqModelOp::kClosedResult, 1, 2});
    h.push_back({Operation::Kind::kEnqueue, 1, 5, 3, 4});
    h.push_back({Operation::Kind::kDequeue, 1, 5, 5, 6});
    const auto r = detail_explore::check_execution(h);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("tantrum"), std::string::npos);
}

TEST(Explore, CoverageCountersProveCornerPathsAreEnumerated) {
    // The whole point of exhaustive exploration is reaching the corner
    // transitions; assert they actually occur in the enumerated space.
    ExploreConfig cfg = tiny(2, 1);
    const auto a = explore_exhaustive({{enq_op(1)}, {enq_op(2), deq_op()}}, cfg);
    EXPECT_GT(a.closes, 0u) << "no schedule closed the ring";

    const auto b = explore_exhaustive({{enq_op(1), deq_op()}, {deq_op()}}, cfg);
    EXPECT_GT(b.empty_transitions, 0u) << "no schedule poisoned a cell";

    // Unsafe transitions need a dequeuer one lap ahead of a resident item;
    // sample a config where retries wrap the R=2 ring.
    ExploreConfig dense = tiny(2, 3);
    dense.samples = 200'000;
    dense.seed = 11;
    const auto c = explore_random(
        {{enq_op(1), enq_op(2)}, {deq_op(), deq_op()}, {deq_op()}}, dense);
    EXPECT_EQ(c.violations, 0u) << c.summary();
    EXPECT_GT(c.unsafe_transitions, 0u)
        << "sampling never reached the unsafe transition: " << c.summary();
    EXPECT_GT(c.enq_rescues + c.empty_transitions, 0u) << c.summary();
}

// --- LCRQ layer: the December-2013 fix, demonstrated -----------------------

TEST(ExploreLcrq, CorrectedDequeueSurvivesSampling) {
    // Tiny rings + starvation limit 1: segments close and get appended
    // inside the explored window; the corrected dequeue must keep every
    // schedule linearizable.
    ExploreConfig cfg = tiny(2, 1);
    cfg.corrected = true;
    cfg.samples = 50'000;
    cfg.seed = 5;
    const auto r = explore_lcrq_random(
        {{enq_op(1), enq_op(2), enq_op(3)}, {deq_op(), deq_op(), deq_op()}}, cfg);
    EXPECT_EQ(r.violations, 0u) << r.summary();
    EXPECT_GT(r.appended_segments, 0u) << "no schedule split the queue: " << r.summary();
    EXPECT_GT(r.closes, 0u) << r.summary();
}

TEST(ExploreLcrq, CorrectedDequeueSurvivesExhaustiveTinyConfig) {
    // One enqueuer vs one dequeuer: the dequeuer can poison the enqueuer's
    // cell, forcing a close + seeded append inside the enumerated window.
    ExploreConfig cfg = tiny(2, 1);
    cfg.corrected = true;
    const auto r = explore_lcrq_exhaustive({{enq_op(1)}, {deq_op()}}, cfg);
    EXPECT_FALSE(r.truncated) << r.summary();
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
    EXPECT_GT(r.appended_segments, 0u) << "no schedule appended a segment: " << r.summary();
}

TEST(ExploreLcrq, ProceedingsVersionLosesItems) {
    // With the second-dequeue retry removed (the proceedings version of
    // Figure 5), the explorer must find the lost-item schedule the
    // December-2013 revision fixes.  The minimal cast needs three threads:
    //   B's dequeue observes EMPTY in segment 0 and pauses,
    //   A's enqueue then completes in segment 0,
    //   C fills the ring and closes it, appending segment 1,
    //   B resumes, sees the successor, and (bug) swings head past A's item.
    ExploreConfig cfg = tiny(2, 1);
    cfg.corrected = false;
    cfg.samples = 200'000;
    cfg.seed = 17;
    const auto r = explore_lcrq_random(
        {{enq_op(1)}, {deq_op(), deq_op()}, {enq_op(2), enq_op(3)}}, cfg);
    EXPECT_GT(r.violations, 0u)
        << "the proceedings-version bug should be discoverable by sampling: "
        << r.summary();

    // And the identical configuration with the fix survives.
    ExploreConfig fixed = cfg;
    fixed.corrected = true;
    const auto ok = explore_lcrq_random(
        {{enq_op(1)}, {deq_op(), deq_op()}, {enq_op(2), enq_op(3)}}, fixed);
    EXPECT_EQ(ok.violations, 0u) << ok.summary();
}

TEST(ExploreLcrq, EnqueueAlwaysSucceedsAtListLevel) {
    // LCRQ enqueue never reports CLOSED upward: it appends instead.
    ExploreConfig cfg = tiny(2, 1);
    cfg.samples = 5'000;
    cfg.seed = 23;
    const auto r = explore_lcrq_random(
        {{enq_op(1), enq_op(2), enq_op(3), enq_op(4)}, {enq_op(5)}}, cfg);
    EXPECT_EQ(r.violations, 0u) << r.summary();
    EXPECT_GT(r.appended_segments, 0u) << r.summary();
}

// --- Figure 2 infinite-array queue (the paper omitted its proof) -----------

TEST(ExploreInfArray, ExhaustiveSmallConfigs) {
    // The ops are 2-3 steps each on the fast path, but enqueuer/dequeuer
    // chases can livelock (the paper's stated flaw), so branches are
    // bounded at max_steps and pruned; every *completed* schedule must be
    // linearizable.
    ExploreConfig cfg;
    cfg.max_steps = 60;
    for (const auto& scripts : {
             std::vector<ThreadScript>{{enq_op(1)}, {deq_op()}},
             std::vector<ThreadScript>{{enq_op(1), enq_op(2)}, {deq_op(), deq_op()}},
             std::vector<ThreadScript>{{enq_op(1), deq_op()}, {deq_op(), enq_op(2)}},
         }) {
        // No pruned == 0 here: the infinite-array queue genuinely livelocks
        // (footnote 4), so max_steps cutting branches is expected.
        const auto r = explore_infarray_exhaustive(scripts, cfg);
        EXPECT_FALSE(r.truncated) << r.summary();
        EXPECT_EQ(r.violations, 0u) << r.summary();
        EXPECT_GT(r.schedules, 10u) << r.summary();
    }
    // Three single-op threads explode combinatorially (retry chains x 3
    // schedulable threads); sample that shape densely instead.
    ExploreConfig dense;
    dense.max_steps = 60;
    dense.samples = 50'000;
    dense.seed = 13;
    const auto r3 =
        explore_infarray_random({{enq_op(1)}, {enq_op(2)}, {deq_op()}}, dense);
    EXPECT_EQ(r3.violations, 0u) << r3.summary();
}

TEST(ExploreInfArray, LivelockBranchesExistAndArePruned) {
    // The infinite-array queue's livelock is real: with a dequeuer chasing
    // an enqueuer the explorer must hit the step bound on some branches.
    ExploreConfig cfg;
    cfg.max_steps = 40;
    const auto r = explore_infarray_exhaustive(
        {{enq_op(1), enq_op(2)}, {deq_op(), deq_op()}}, cfg);
    EXPECT_GT(r.pruned, 0u) << "expected livelocked schedules to be cut: "
                            << r.summary();
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

TEST(ExploreInfArray, RandomSamplingLargerScripts) {
    ExploreConfig cfg;
    cfg.samples = 50'000;
    cfg.seed = 31;
    cfg.max_steps = 200;
    const auto r = explore_infarray_random(
        {{enq_op(1), enq_op(2), deq_op()}, {deq_op(), enq_op(3), deq_op()},
         {deq_op(), deq_op()}},
        cfg);
    EXPECT_EQ(r.violations, 0u) << r.summary();
}

// --- SCQ ring model (scq_model.hpp) ---------------------------------------

TEST(ScqModel, MatchesRealScqRingSequentially) {
    // Random op sequences through the step model and the real ScqRing must
    // agree on every result AND on the shared head/tail/threshold state.
    // Occupancy is kept ≤ capacity, the invariant the ring is used under.
    Xoshiro256 rng(77);
    for (int round = 0; round < 50; ++round) {
        const unsigned order = 1 + static_cast<unsigned>(rng.bounded(2));  // n=2/4
        const std::uint64_t cap = std::uint64_t{1} << order;
        ScqRing<> real(order);
        ScqModelState model(cap);

        std::uint64_t size = 0;
        for (int i = 0; i < 60; ++i) {
            const bool is_enq = size < cap && rng.bounded(2) == 0;
            if (is_enq) {
                const value_t v = rng.bounded(cap);  // ring stores indices < n
                ScqModelOp op = make_scq_model_op(ScqModelOp::Kind::kEnqueue, v);
                while (op.step(model) == ScqModelOp::Status::kRunning) {
                }
                ASSERT_EQ(op.result(), v) << "the ring model never closes";
                ASSERT_EQ(real.enqueue(v), EnqueueResult::kOk)
                    << "round " << round << " op " << i;
                ++size;
            } else {
                ScqModelOp op = make_scq_model_op(ScqModelOp::Kind::kDequeue, 0);
                while (op.step(model) == ScqModelOp::Status::kRunning) {
                }
                const auto got = real.dequeue();
                if (op.result() == kEmpty) {
                    ASSERT_FALSE(got.has_value()) << "round " << round << " op " << i;
                } else {
                    ASSERT_TRUE(got.has_value()) << "round " << round << " op " << i;
                    ASSERT_EQ(*got, op.result());
                    --size;
                }
            }
            // Shared state must track the real ring exactly, including the
            // threshold (the livelock-bound half of the protocol).
            ASSERT_EQ(model.head, real.head_index()) << "round " << round;
            ASSERT_EQ(model.tail, real.tail_index()) << "round " << round;
            ASSERT_EQ(model.threshold, real.threshold()) << "round " << round;
        }
    }
}

TEST(ScqModel, ThresholdExhaustionEmptyIsReachable) {
    // Hand-driven schedule for the one corner the catchup exit hides from
    // small scripts: EMPTY via the threshold draining to below zero while
    // tail is still ahead (DISC'19 §4.3).  Four enqueuers park forever
    // after their F&A (tail = published + 5) — dead-enqueuer tickets, the
    // model analogue of debug_take_enqueue_ticket in the injection suite;
    // the ops never complete, so the EMPTY stays linearizable.  The
    // dequeuer's sweep then burns three tickets whose "has tail passed
    // us" check stays false.
    ScqModelState s(1);  // n = 1: ring of 2, threshold_full = 2
    ScqModelOp enq = make_scq_model_op(ScqModelOp::Kind::kEnqueue, 1);
    while (enq.step(s) == ScqModelOp::Status::kRunning) {
    }
    std::vector<ScqModelOp> parked;
    for (int i = 0; i < 4; ++i) {
        parked.push_back(make_scq_model_op(ScqModelOp::Kind::kEnqueue, 2));
        ASSERT_EQ(parked.back().step(s), ScqModelOp::Status::kRunning);  // F&A only
    }
    ASSERT_EQ(s.tail, s.N() + 5);

    ScqModelOp deq1 = make_scq_model_op(ScqModelOp::Kind::kDequeue, 0);
    while (deq1.step(s) == ScqModelOp::Status::kRunning) {
    }
    EXPECT_EQ(deq1.result(), 1u);

    ScqModelOp deq2 = make_scq_model_op(ScqModelOp::Kind::kDequeue, 0);
    while (deq2.step(s) == ScqModelOp::Status::kRunning) {
    }
    EXPECT_EQ(deq2.result(), kEmpty);
    EXPECT_EQ(s.threshold_empties, 1u)
        << "EMPTY must have come from exhaustion, not the catchup exit";
    EXPECT_EQ(s.catchups, 0u);
    EXPECT_LT(s.threshold, 0);
}

TEST(ScqModel, CatchupRepairsHeadPastTail) {
    // The other EMPTY exit: a burned ticket with tail ≤ h+1 pulls tail
    // forward (head > tail would otherwise cost enqueuers a wasted F&A
    // round each).
    ScqModelState s(1);
    ScqModelOp enq = make_scq_model_op(ScqModelOp::Kind::kEnqueue, 1);
    while (enq.step(s) == ScqModelOp::Status::kRunning) {
    }
    ScqModelOp deq1 = make_scq_model_op(ScqModelOp::Kind::kDequeue, 0);
    while (deq1.step(s) == ScqModelOp::Status::kRunning) {
    }
    EXPECT_EQ(deq1.result(), 1u);
    ScqModelOp deq2 = make_scq_model_op(ScqModelOp::Kind::kDequeue, 0);
    while (deq2.step(s) == ScqModelOp::Status::kRunning) {
    }
    EXPECT_EQ(deq2.result(), kEmpty);
    EXPECT_EQ(s.catchups, 1u);
    EXPECT_EQ(s.tail, s.head) << "catchup must leave tail == head";
}

TEST(ScqModel, EnqueueRescueRevivesUnsafeEntry) {
    // Hand-driven in-contract schedule for the rarest enqueue branch: an
    // entry marked unsafe by an overtaking dequeuer, then consumed by its
    // parked owner, leaves (cycle, safe=0, ⊥).  The next enqueuer to draw
    // that slot may only publish over the dead safe bit after proving
    // head <= t — the rescue check.  Occupancy never exceeds 1 on n = 2.
    ScqModelState s(2);  // N = 4, threshold_full = 5
    auto run = [&s](ScqModelOp op) {
        while (op.step(s) == ScqModelOp::Status::kRunning) {
        }
        return op.result();
    };
    ASSERT_EQ(run(make_scq_model_op(ScqModelOp::Kind::kEnqueue, 7)), 7u);

    // The item's own dequeuer parks right after its F&A (holding ticket 4)…
    ScqModelOp d0 = make_scq_model_op(ScqModelOp::Kind::kDequeue, 0);
    ASSERT_EQ(d0.step(s), ScqModelOp::Status::kRunning);  // threshold gate
    ASSERT_EQ(d0.step(s), ScqModelOp::Status::kRunning);  // F&A(head) -> 4
    // …while four more dequeuers sweep an empty-looking ring.  The fourth
    // laps back onto slot 0 (ticket 8, cycle 2 > 1) and must take the
    // unsafe transition on the still-occupied entry.
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(run(make_scq_model_op(ScqModelOp::Kind::kDequeue, 0)), kEmpty);
    }
    ASSERT_EQ(s.unsafe_transitions, 1u);
    ASSERT_EQ(s.catchups, 4u) << "each sweep pulls tail up behind itself";

    // The parked owner still consumes: cycle matches its ticket, and the
    // fetch-or does not care that safe was cleared underneath it.
    while (d0.step(s) == ScqModelOp::Status::kRunning) {
    }
    ASSERT_EQ(d0.result(), 7u);

    // Three clean enqueue/dequeue pairs walk tail around to slot 0…
    for (value_t v : {9u, 11u, 13u}) {
        ASSERT_EQ(run(make_scq_model_op(ScqModelOp::Kind::kEnqueue, v)), v);
        ASSERT_EQ(run(make_scq_model_op(ScqModelOp::Kind::kDequeue, 0)), v);
    }
    ASSERT_EQ(s.enq_rescues, 0u);
    // …and the enqueue that draws ticket 12 (slot 0, cycle 3) finds the
    // unsafe ⊥ entry and rescues it: head == 12 <= t.
    ASSERT_EQ(run(make_scq_model_op(ScqModelOp::Kind::kEnqueue, 15)), 15u);
    EXPECT_EQ(s.enq_rescues, 1u) << "publish must have gone through the rescue check";
    ASSERT_EQ(run(make_scq_model_op(ScqModelOp::Kind::kDequeue, 0)), 15u);
}

// --- SCQ exhaustive interleaving enumeration ------------------------------
//
// Scripts keep ring *occupancy* (live items + in-flight enqueues) ≤ the
// capacity `tiny(n)` configures — the contract the fq/aq pairing enforces
// in the full queue.  Overfilled rings burn enqueue tickets ad infinitum
// (pruned schedules) and can legitimately exhaust the 3n-1 threshold into
// a false EMPTY: not a model bug, but SCQ outside its operating envelope.
// Within the invariant, pruned == 0 is assertable: the protocol has no
// livelock, and any pruning would mean max_steps silently cut branches
// out of the proof.
//
// The SCQ and wCQ models are deterministic given the script, the config
// and the sampling seed, so every counter of every run below is pinned
// through expect_counts: a change to any step's atomicity, order or
// branch shows up as a count diff, not as a quieter pass.

struct Counts {
    std::uint64_t schedules = 0, violations = 0, unsafe = 0, empty = 0,
                  rescues = 0, catchups = 0, threshold = 0, slow = 0,
                  notes = 0, commits = 0, reverts = 0, empty_commits = 0;
    friend bool operator==(const Counts&, const Counts&) = default;
};

void PrintTo(const Counts& c, std::ostream* os) {
    *os << "{schedules " << c.schedules << ", violations " << c.violations
        << ", unsafe " << c.unsafe << ", empty " << c.empty << ", rescues "
        << c.rescues << ", catchups " << c.catchups << ", threshold "
        << c.threshold << ", slow " << c.slow << ", notes " << c.notes
        << ", commits " << c.commits << ", reverts " << c.reverts
        << ", empty_commits " << c.empty_commits << "}";
}

// Every field of an SCQ-family result: the counts as given, no truncation
// or pruning, and nothing of the list layer (the ring models never close
// or append).
void expect_counts(const ExploreResult& r, const Counts& want) {
    const Counts got{r.schedules,         r.violations,    r.unsafe_transitions,
                     r.empty_transitions, r.enq_rescues,   r.catchups,
                     r.threshold_empties, r.slow_publishes, r.notes_placed,
                     r.note_commits,      r.note_reverts,  r.empty_commits};
    EXPECT_EQ(got, want) << r.summary();
    EXPECT_FALSE(r.truncated) << r.summary();
    EXPECT_EQ(r.pruned, 0u) << r.summary();
    EXPECT_EQ(r.first_error.empty(), r.violations == 0) << r.summary();
    EXPECT_EQ(r.closes, 0u);
    EXPECT_EQ(r.appended_segments, 0u);
}

TEST(ExploreScq, ExhaustiveOneEnqOneDeq) {
    const auto r = explore_scq_exhaustive({{enq_op(1)}, {deq_op()}}, tiny());
    // The enumeration is tiny and exactly countable: the uncontended
    // enqueue takes 5 steps (F&A, read, publish CAS, threshold check +
    // store), and the dequeue either lands its single-step threshold<0
    // fast path in one of the 5 gaps (EMPTY, linearized before the
    // publish) or runs after completion and consumes.  5 + 1 = 6.
    expect_counts(r, {.schedules = 6});
}

TEST(ExploreScq, ExhaustiveTwoEnqueuersTwoSlots) {
    const auto r = explore_scq_exhaustive({{enq_op(1)}, {enq_op(2)}}, tiny());
    expect_counts(r, {.schedules = 252});
}

TEST(ExploreScq, ExhaustiveEnqDeqPairVsDequeuer) {
    const auto r =
        explore_scq_exhaustive({{enq_op(1), deq_op()}, {deq_op()}}, tiny());
    expect_counts(r, {.schedules = 189, .empty = 184, .catchups = 184});
    // Both EMPTY-answer shapes are inside this enumeration.
    EXPECT_GT(r.empty_transitions, 0u) << r.summary();
    EXPECT_GT(r.catchups, 0u) << r.summary();
}

TEST(ExploreScq, ExhaustiveUnsafeTransitionOnCapacityOne) {
    // n = 1 and three dequeue tickets: a dequeuer parked on ticket h while
    // head advances past h + 2n laps the ring, and the overtaker must take
    // the unsafe transition on the still-occupied entry — the safe-bit
    // analogue of the CRQ §4.1.2 corner, exhaustively enumerated.
    const auto r = explore_scq_exhaustive(
        {{enq_op(1), deq_op()}, {deq_op(), deq_op()}}, tiny(1));
    expect_counts(r, {.schedules = 34'922,
                      .unsafe = 154,
                      .empty = 75'229,
                      .catchups = 60'182});
    EXPECT_GT(r.unsafe_transitions, 0u)
        << "the lapping window was never enumerated: " << r.summary();
}

TEST(ExploreScq, RandomSamplingThreeThreads) {
    // One enqueue and five dequeuers on a capacity-1 ring: total enqueues
    // never exceed capacity, so every sampled schedule is in-contract and
    // must linearize — while the dequeuer pile-up reaches every dequeue-
    // side transition kind, including the full-lap unsafe marking.
    ExploreConfig cfg = tiny(1);
    cfg.samples = 100'000;
    cfg.seed = 7;
    const auto r = explore_scq_random(
        {{enq_op(1), deq_op()}, {deq_op(), deq_op()}, {deq_op(), deq_op()}},
        cfg);
    EXPECT_GT(r.unsafe_transitions, 0u) << r.summary();
    EXPECT_GT(r.empty_transitions, 0u) << r.summary();
    EXPECT_GT(r.catchups, 0u) << r.summary();
    expect_counts(r, {.schedules = 100'000,
                      .unsafe = 491,
                      .empty = 28'136,
                      .catchups = 26'885,
                      .threshold = 195});

    // The enqueue rescue: T0 enqueues again once its dequeue has answered,
    // so at most one item is enqueued and not yet dequeued at a time.  Its
    // second ticket can draw an entry an overtaking dequeuer left unsafe
    // (cycle behind, safe = 0, ⊥), which it may only fill after proving
    // head <= t.
    const auto rescue = explore_scq_random({{enq_op(1), deq_op(), enq_op(2)},
                                            {deq_op(), deq_op()},
                                            {deq_op(), deq_op()}},
                                           cfg);
    EXPECT_EQ(rescue.violations, 0u) << rescue.summary();
    EXPECT_EQ(rescue.pruned, 0u) << rescue.summary();
    EXPECT_GT(rescue.enq_rescues, 0u) << rescue.summary();
    expect_counts(rescue, {.schedules = 100'000,
                           .unsafe = 539,
                           .empty = 23'969,
                           .rescues = 161,
                           .catchups = 15'815,
                           .threshold = 249});
}

TEST(ExploreScq, RandomSamplingReachesThresholdExhaustion) {
    // EMPTY via threshold exhaustion needs tail ≥ 2 tickets past a
    // sweeping dequeuer — reachable in-contract when the lone enqueuer's
    // publish CAS loses to an empty transition and its retry F&A runs
    // ahead of the sweep.  Same scripts as above, independent seed.
    ExploreConfig cfg = tiny(1);
    cfg.samples = 100'000;
    cfg.seed = 19;
    const auto r = explore_scq_random(
        {{enq_op(1), deq_op()}, {deq_op(), deq_op()}, {deq_op(), deq_op()}},
        cfg);
    EXPECT_GT(r.threshold_empties, 0u) << r.summary();
    expect_counts(r, {.schedules = 100'000,
                      .unsafe = 532,
                      .empty = 27'886,
                      .catchups = 26'634,
                      .threshold = 177});
}

// --- wCQ ring model (wcq_model.hpp) ---------------------------------------

TEST(WcqModel, MatchesRealWcqRingSequentially) {
    // Random op sequences through the step model and the real WcqRing must
    // agree on every result AND on head/tail/threshold, with a quarter of
    // the ops forced down the slow path (publish/note/commit/cleanup) on
    // both sides.  Occupancy stays ≤ capacity, the fq/aq contract.
    Xoshiro256 rng(81);
    for (int round = 0; round < 50; ++round) {
        const unsigned order = 1 + static_cast<unsigned>(rng.bounded(2));
        const std::uint64_t cap = std::uint64_t{1} << order;
        WcqRing<> real(order);
        WcqModelState model(cap);

        std::uint64_t size = 0;
        for (int i = 0; i < 60; ++i) {
            const bool is_enq = size < cap && rng.bounded(2) == 0;
            const bool slow = rng.bounded(4) == 0;
            if (is_enq) {
                const value_t v = rng.bounded(cap);
                auto op = make_wcq_model_op(WcqModelOp::Kind::kEnqueue, v, 64,
                                            true, slow);
                while (op.step(model) == WcqModelOp::Status::kRunning) {
                }
                ASSERT_EQ(op.result(), v) << "the ring model never closes";
                if (slow) {
                    const auto r = real.debug_enqueue_slow(v);
                    ASSERT_TRUE(r.has_value()) << "sequential slot collision";
                    ASSERT_EQ(*r, EnqueueResult::kOk);
                } else {
                    ASSERT_EQ(real.enqueue(v), EnqueueResult::kOk)
                        << "round " << round << " op " << i;
                }
                ++size;
            } else {
                auto op = make_wcq_model_op(WcqModelOp::Kind::kDequeue, 0, 64,
                                            true, slow);
                while (op.step(model) == WcqModelOp::Status::kRunning) {
                }
                std::optional<std::uint64_t> got;
                if (slow) {
                    ASSERT_TRUE(real.debug_dequeue_slow(got))
                        << "sequential slot collision";
                } else {
                    got = real.dequeue();
                }
                if (op.result() == kEmpty) {
                    ASSERT_FALSE(got.has_value())
                        << "round " << round << " op " << i
                        << (slow ? " (slow)" : " (fast)");
                } else {
                    ASSERT_TRUE(got.has_value()) << "round " << round << " op " << i;
                    ASSERT_EQ(*got, op.result());
                    --size;
                }
            }
            ASSERT_EQ(model.head, real.head_index()) << "round " << round;
            ASSERT_EQ(model.tail, real.tail_index()) << "round " << round;
            ASSERT_EQ(model.threshold, real.threshold()) << "round " << round;
            ASSERT_EQ(real.pending_requests(), 0u)
                << "a sequential slow op must retire its own request";
        }
    }
}

// Hand-driven schedule for the commit-word race the helping layer must
// get right: requester places its enqueue note and stalls before the
// commit CAS; a slow dequeuer finds the note and resolves it — deciding
// the request in favour of the note; the requester resumes, loses its
// commit CAS, and must NOT treat that as "my note lost".  The blind
// revert (corrected = false) unpublishes the committed item: the enqueue
// still reports OK, but the value is gone forever.
TEST(WcqModel, BlindRevertOfWinningNoteLosesTheItem) {
    const auto drive = [](bool corrected) {
        WcqModelState s(1);  // N = 2, head = tail = 2
        auto enq = make_wcq_model_op(WcqModelOp::Kind::kEnqueue, 1, 0,
                                     corrected, /*force_slow=*/true);
        auto deq = make_wcq_model_op(WcqModelOp::Kind::kDequeue, 0, 0,
                                     corrected, /*force_slow=*/true);
        // Requester: publish, chase, place the note, fix tail — stop at
        // the commit CAS.
        for (int i = 0; i < 7; ++i) enq.step(s);
        EXPECT_EQ(s.notes_placed, 1u) << "schedule drifted: no note placed";
        EXPECT_EQ(s.recs[0].arg, WcqModelState::kArgNone);
        // Dequeuer: publish, chase to the note, resolve it — the decide
        // CAS commits the requester's arg at the note's ticket.
        for (int i = 0; i < 8; ++i) deq.step(s);
        EXPECT_EQ(s.note_commits, 1u) << "schedule drifted: no resolve commit";
        EXPECT_EQ(s.recs[0].arg, 2u);
        // Requester resumes: its commit CAS loses (arg already decided).
        // corrected: re-reads arg, sees its own ticket won, leaves the
        // note for cleanup.  blind: reverts the winning note.
        enq.step(s);  // commit CAS (lost)
        enq.step(s);  // corrected: arg re-read / blind: revert
        EXPECT_EQ(s.note_reverts, corrected ? 0u : 1u);
        // Run everything to completion, then a fresh fast dequeue.
        while (!enq.done()) enq.step(s);
        while (!deq.done()) deq.step(s);
        auto deq2 = make_wcq_model_op(WcqModelOp::Kind::kDequeue, 0, 64, true);
        while (!deq2.done()) deq2.step(s);
        EXPECT_EQ(enq.result(), 1u) << "the enqueue reported OK either way";
        return std::pair{deq.result(), deq2.result()};
    };

    const auto [blind1, blind2] = drive(false);
    EXPECT_EQ(blind1, kEmpty);
    EXPECT_EQ(blind2, kEmpty) << "item 1 must be LOST under the blind revert";

    const auto [fixed1, fixed2] = drive(true);
    EXPECT_TRUE(fixed1 == 1u || fixed2 == 1u)
        << "the corrected protocol must deliver the committed item exactly "
           "once (got "
        << fixed1 << ", " << fixed2 << ")";
    EXPECT_TRUE(fixed1 == kEmpty || fixed2 == kEmpty);
}

// --- wCQ exhaustive interleaving enumeration ------------------------------
//
// Same occupancy contract as the SCQ enumeration (total enqueues ≤
// capacity).  wcq_patience = 0 sends every op that loses a single round
// into the helping slow path, so the enumerations below cover request
// publication, note placement, commit arbitration, and cleanup under
// every interleaving of the scripts.
//
// All slow-path enumerations set wcq_armed: a fresh ring's threshold of
// -1 makes every dequeuer answer EMPTY until the first enqueue's final
// rearm step, so no dequeuer can ever race the first enqueue's cell and
// no op can lose a fast-path round — the slow path would be dead code in
// these scripts.  Arming the threshold (the state left behind by any
// prior enqueue/dequeue pair) lets head and tail tickets collide from
// the first step.

TEST(ExploreWcq, ExhaustiveFastPathMatchesScqShape) {
    // With infinite patience the wCQ model IS the SCQ model (plus the
    // consume-CAS refinement): the smallest enumeration stays exactly
    // countable, as in ExploreScq.ExhaustiveOneEnqOneDeq.
    ExploreConfig cfg = tiny();
    cfg.wcq_patience = 64;
    const auto r = explore_wcq_exhaustive({{enq_op(1)}, {deq_op()}}, cfg);
    EXPECT_EQ(r.slow_publishes, 0u) << "patience 64 must keep every op fast";
    expect_counts(r, {.schedules = 6});
}

TEST(ExploreWcq, ExhaustiveSlowEnqueueVsDequeuer) {
    // Zero patience: head and tail both hand out ticket N first, so any
    // schedule where the dequeuer's empty transition beats the enqueuer's
    // publish CAS bumps the shared cell's cycle and sends the enqueue
    // through request publication and note commit.  Every interleaving
    // must linearize and no branch may be pruned — the helping chase has
    // no livelock.
    ExploreConfig cfg = tiny();
    cfg.wcq_patience = 0;
    cfg.wcq_armed = true;
    const auto r = explore_wcq_exhaustive({{enq_op(1)}, {deq_op()}}, cfg);
    EXPECT_GT(r.slow_publishes, 0u) << r.summary();
    EXPECT_GT(r.notes_placed, 0u) << r.summary();
    EXPECT_GT(r.note_commits, 0u) << r.summary();
    expect_counts(r, {.schedules = 452'938,
                      .empty = 452'863,
                      .catchups = 5,
                      .slow = 892'178,
                      .notes = 892'178,
                      .commits = 892'178});
}

TEST(ExploreWcq, RandomSamplingSlowDequeueCommitsEmpty) {
    // The dequeue side of the slow path, including its EMPTY resolution:
    // the tail-exact check and the kEmpty commit CAS (a slow dequeue
    // answers EMPTY via the commit word, not the threshold).  A dequeuer
    // only publishes once the tail is two or more tickets ahead of its
    // miss (otherwise the catch-up branch finishes EMPTY directly), so
    // the script needs both enqueue F&As in flight while a dequeue
    // misses.  The spare third dequeuer outnumbers the items, so a slow
    // dequeue can genuinely run dry mid-chase.  This much slow-path
    // machinery overflows the exhaustive schedule budget, so the shape is
    // sampled.
    ExploreConfig cfg = tiny();
    cfg.wcq_patience = 0;
    cfg.wcq_armed = true;
    cfg.samples = 30'000;
    cfg.seed = 7;
    const auto r = explore_wcq_random(
        {{enq_op(1), enq_op(2)}, {deq_op(), deq_op()}, {deq_op()}}, cfg);
    EXPECT_GT(r.slow_publishes, 0u) << r.summary();
    EXPECT_GT(r.empty_commits, 0u)
        << "no schedule reached the slow-path EMPTY commit: " << r.summary();
    expect_counts(r, {.schedules = 30'000,
                      .empty = 57'502,
                      .catchups = 34'242,
                      .slow = 24'437,
                      .notes = 23'510,
                      .commits = 23'510,
                      .empty_commits = 927});
}

TEST(ExploreWcq, RandomSamplingFastDequeuerResolvesForeignNote) {
    // A fast-path dequeuer whose ticket lands on another thread's note
    // must resolve it on the requester's behalf — the interaction a dead
    // requester depends on.  The first dequeuer forces the enqueue slow
    // (chasing to ticket N+1), and the second dequeuer's ticket N+1 then
    // meets the note head-on.  (Two enqueuers alone can never exercise
    // this: distinct F&A tickets never share a cell.)
    ExploreConfig cfg = tiny();
    cfg.wcq_patience = 0;
    cfg.wcq_armed = true;
    cfg.samples = 30'000;
    cfg.seed = 5;
    const auto r =
        explore_wcq_random({{enq_op(1)}, {deq_op(), deq_op()}}, cfg);
    EXPECT_GT(r.notes_placed, 0u) << r.summary();
    EXPECT_GT(r.note_commits, 0u) << r.summary();
    expect_counts(r, {.schedules = 30'000,
                      .empty = 34'513,
                      .catchups = 24'473,
                      .slow = 10'057,
                      .notes = 10'057,
                      .commits = 10'057});
}

TEST(ExploreWcq, RandomSamplingThreeThreadsMixedPatience) {
    // One enqueue against a pile of dequeuers on a capacity-1 ring, all at
    // zero patience: samples cover fast/slow mixtures three exhaustive
    // threads cannot reach, with full slow-path coverage counters.
    ExploreConfig cfg = tiny(1);
    cfg.wcq_patience = 0;
    cfg.wcq_armed = true;
    cfg.samples = 30'000;
    cfg.seed = 11;
    const auto r = explore_wcq_random(
        {{enq_op(1), deq_op()}, {deq_op(), deq_op()}, {deq_op(), deq_op()}},
        cfg);
    EXPECT_GT(r.slow_publishes, 0u) << r.summary();
    EXPECT_GT(r.notes_placed, 0u) << r.summary();
    EXPECT_GT(r.note_commits, 0u) << r.summary();
    EXPECT_GT(r.empty_commits, 0u) << r.summary();
    expect_counts(r, {.schedules = 30'000,
                      .unsafe = 3'013,
                      .empty = 111'637,
                      .catchups = 86'684,
                      .threshold = 5'032,
                      .slow = 17'905,
                      .notes = 13'443,
                      .commits = 13'443,
                      .empty_commits = 4'462});

    // The enqueue rescue with helping armed, on the same script shape as
    // ExploreScq.RandomSamplingThreeThreads: fast and slow enqueues both
    // reach the head <= t check.
    const auto rescue = explore_wcq_random({{enq_op(1), deq_op(), enq_op(2)},
                                            {deq_op(), deq_op()},
                                            {deq_op(), deq_op()}},
                                           cfg);
    EXPECT_EQ(rescue.violations, 0u) << rescue.summary();
    EXPECT_EQ(rescue.pruned, 0u) << rescue.summary();
    EXPECT_GT(rescue.enq_rescues, 0u) << rescue.summary();
    expect_counts(rescue, {.schedules = 30'000,
                           .unsafe = 2'934,
                           .empty = 108'676,
                           .rescues = 487,
                           .catchups = 77'673,
                           .threshold = 4'609,
                           .slow = 26'479,
                           .notes = 22'877,
                           .commits = 22'877,
                           .empty_commits = 3'602});
}

TEST(ExploreWcq, RandomSamplingBlindRevertStaysBroken) {
    // The same sampling with corrected = false must surface lost-item
    // schedules (the hand-driven window above, found by search), and the
    // corrected protocol must not.
    // T0's own dequeue is invoked after its enqueue returns, so a lost
    // item forces an un-linearizable EMPTY rather than vanishing quietly.
    const std::vector<ThreadScript> script = {
        {enq_op(1), deq_op()}, {deq_op(), deq_op()}, {deq_op(), deq_op()}};
    ExploreConfig cfg = tiny(1);
    cfg.wcq_patience = 0;
    cfg.wcq_armed = true;
    cfg.samples = 100'000;
    cfg.seed = 23;
    cfg.corrected = false;
    const auto broken = explore_wcq_random(script, cfg);
    EXPECT_GT(broken.violations, 0u)
        << "the blind revert should lose items: " << broken.summary();
    expect_counts(broken, {.schedules = 100'000,
                           .violations = 938,
                           .unsafe = 9'848,
                           .empty = 371'333,
                           .catchups = 287'629,
                           .threshold = 17'430,
                           .slow = 60'395,
                           .notes = 45'662,
                           .commits = 45'662,
                           .reverts = 938,
                           .empty_commits = 14'733});
    cfg.corrected = true;
    const auto fixed = explore_wcq_random(script, cfg);
    expect_counts(fixed, {.schedules = 100'000,
                          .unsafe = 10'039,
                          .empty = 372'078,
                          .catchups = 288'809,
                          .threshold = 16'624,
                          .slow = 60'242,
                          .notes = 45'533,
                          .commits = 45'533,
                          .empty_commits = 14'709});
}

// --- notify handshakes ------------------------------------------------------

TEST(NotifyModel, ThreadHandshakeNeverStrandsASleeper) {
    const NotifyExploreResult r = explore_handshake(WaiterKind::kThread);
    EXPECT_TRUE(r.ok()) << r.first_violation;
    // Both sides of the gate were explored: schedules where the notifier
    // skipped the bump (nobody registered yet) and ones where the waiter
    // really parked and had to be woken.
    EXPECT_GT(r.skips, 0u);
    EXPECT_GT(r.sleeps, 0u);
}

TEST(NotifyModel, FrameHandshakeNeverStrandsAParkedFrame) {
    // A frame is gated exactly like a thread: the notifier bumps and pops
    // only for a registered frame, and some schedules skip both.
    const NotifyExploreResult r = explore_handshake(WaiterKind::kFrame);
    EXPECT_TRUE(r.ok()) << r.first_violation;
    EXPECT_GT(r.skips, 0u);
    EXPECT_GT(r.sleeps, 0u) << "no schedule parked the frame";
}

TEST(NotifyModel, CatchesANotifierThatReadsTheCountBeforePublishing) {
    for (const WaiterKind kind : {WaiterKind::kThread, WaiterKind::kFrame}) {
        const NotifyExploreResult r =
            explore_handshake(kind, NotifyMutant::kCountBeforePublish);
        EXPECT_GT(r.violations, 0u) << "the explorer missed the lost wakeup";
    }
}

TEST(NotifyModel, CatchesAWaiterThatReadsTheEpochAfterItsRecheck) {
    for (const WaiterKind kind : {WaiterKind::kThread, WaiterKind::kFrame}) {
        const NotifyExploreResult r =
            explore_handshake(kind, NotifyMutant::kEpochAfterRecheck);
        EXPECT_GT(r.violations, 0u) << "the explorer missed the lost wakeup";
    }
}

TEST(NotifyModel, CatchesAFrameThatParksWithoutRegistering) {
    const NotifyExploreResult r =
        explore_handshake(WaiterKind::kFrame, NotifyMutant::kUnregisteredFrame);
    EXPECT_GT(r.violations, 0u) << "the explorer missed the stranded frame";
}

}  // namespace
}  // namespace lcrq::verify
