// Heavier cross-cutting stress:
//  * schedule-coverage canary — tiny CRQ rings under contention must
//    actually drive every corner-case transition (unsafe, empty,
//    spin-wait, close, append), observed through the event counters;
//  * token conservation — values circulating between two queues through
//    racing movers are never lost or duplicated;
//  * churn — queue construction/destruction racing nothing but itself,
//    with thread-id and hazard-record recycling underneath.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "arch/counters.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/multilane.hpp"
#include "registry/queue_registry.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "util/xorshift.hpp"

namespace lcrq {
namespace {

// The list-of-rings stress tests run identically over all the segment
// disciplines: LCRQ (CAS2 rings), LSCQ (cycle/threshold rings), LwCQ
// (cycle/threshold rings with the wait-free helping layer), and the
// hierarchical LCRQ-H/LSCQ-H (§4.1.1 cluster handoff in front of the
// same rings).  Workers place themselves across two virtual clusters —
// meaningless to the non-hierarchical types, real foreign-tag traffic
// for the -h ones.
template <typename Q>
class ListQueueStress : public ::testing::Test {
  protected:
    static void place(int id) { topo::set_current_cluster(id % 2); }
    static QueueOptions options(unsigned ring_order) {
        QueueOptions opt;
        opt.ring_order = ring_order;
        // Short claim timeout so the rig's clusters actually trade
        // segments instead of one side monopolizing the tag.
        opt.cluster_timeout_ns = 20'000;
        return opt;
    }
};
using ListQueueTypes =
    ::testing::Types<LcrqQueue, LscqQueue, LwcqQueue, LcrqHQueue, LscqHQueue>;
TYPED_TEST_SUITE(ListQueueStress, ListQueueTypes);

TEST(Stress, TinyRingDrivesAllTransitions) {
    // Under real contention on an R=4 ring, the overtaken/unsafe/empty
    // paths and ring closes must all fire; if this canary ever goes
    // silent, concurrency coverage of the CRQ corner cases is gone.
    stats::reset_all();
    QueueOptions opt;
    opt.ring_order = 2;
    opt.starvation_limit = 4;

    for (int round = 0; round < 50; ++round) {
        LcrqQueue q(opt);
        std::atomic<std::uint64_t> remaining{2000};  // 2 producers x 1000
        test::run_threads(4, [&](int id) {
            if (id % 2 == 0) {
                for (int i = 0; i < 1000; ++i) {
                    q.enqueue(test::tag(static_cast<unsigned>(id),
                                        static_cast<std::uint64_t>(i)));
                }
            } else {
                while (remaining.load(std::memory_order_acquire) > 0) {
                    if (q.dequeue().has_value()) {
                        remaining.fetch_sub(1, std::memory_order_acq_rel);
                    }
                }
            }
        });
        const auto snap = stats::global_snapshot();
        if (snap[stats::Event::kEmptyTransition] > 0 &&
            snap[stats::Event::kCrqClose] > 0 &&
            snap[stats::Event::kCrqAppend] > 0 &&
            snap[stats::Event::kRingRetry] > 0) {
            break;  // full coverage reached; unsafe transitions are rarer
        }
    }
    const auto snap = stats::global_snapshot();
    EXPECT_GT(snap[stats::Event::kEmptyTransition], 0u);
    EXPECT_GT(snap[stats::Event::kCrqClose], 0u);
    EXPECT_GT(snap[stats::Event::kCrqAppend], 0u);
    EXPECT_GT(snap[stats::Event::kRingRetry], 0u);

    // The open-ring spin-wait (§4.1.1) needs an enqueuer caught between
    // its tail F&A and its CAS2, which the rounds above meet only by luck
    // (about 60% of rounds on four idle CPUs, none under four busy loops).
    // Stall one there on an R = 4 ring: its ticket is taken and never
    // published, so the dequeuer that draws it waits before poisoning.
    Crq<> ring(opt);
    ASSERT_EQ(ring.try_enqueue(1), EnqueueResult::kOk);
    (void)ring.debug_take_enqueue_ticket();
    EXPECT_EQ(ring.dequeue().value_or(0), 1u);
    EXPECT_FALSE(ring.dequeue().has_value());
    EXPECT_GT(stats::global_snapshot()[stats::Event::kSpinWait], 0u);
}

TEST(Stress, TinyScqSegmentsDriveAllTransitions) {
    // The LSCQ analogue of the canary above: capacity-4 SCQ segments under
    // the same contention must exercise the empty transition, fetch-or
    // consumes, segment closes, and list appends.  (No kSpinWait here —
    // the unbounded list never backpressures; and no kRingRetry — the fq
    // caps occupancy, so enqueue tickets essentially never burn, which is
    // the point of the pairing.)
    stats::reset_all();
    QueueOptions opt;
    opt.ring_order = 2;  // capacity 4 per segment

    for (int round = 0; round < 50; ++round) {
        LscqQueue q(opt);
        std::atomic<std::uint64_t> remaining{2000};  // 2 producers x 1000
        test::run_threads(4, [&](int id) {
            if (id % 2 == 0) {
                for (int i = 0; i < 1000; ++i) {
                    q.enqueue(test::tag(static_cast<unsigned>(id),
                                        static_cast<std::uint64_t>(i)));
                }
            } else {
                while (remaining.load(std::memory_order_acquire) > 0) {
                    if (q.dequeue().has_value()) {
                        remaining.fetch_sub(1, std::memory_order_acq_rel);
                    }
                }
            }
        });
        const auto snap = stats::global_snapshot();
        if (snap[stats::Event::kEmptyTransition] > 0 &&
            snap[stats::Event::kCrqClose] > 0 &&
            snap[stats::Event::kCrqAppend] > 0 &&
            snap[stats::Event::kFetchOr] > 0) {
            break;
        }
    }
    const auto snap = stats::global_snapshot();
    EXPECT_GT(snap[stats::Event::kEmptyTransition], 0u);
    EXPECT_GT(snap[stats::Event::kCrqClose], 0u);
    EXPECT_GT(snap[stats::Event::kCrqAppend], 0u);
    EXPECT_GT(snap[stats::Event::kFetchOr], 0u);
    EXPECT_EQ(snap[stats::Event::kCas2], 0u) << "SCQ path must stay CAS2-free";
}

TYPED_TEST(ListQueueStress, TokenConservationBetweenTwoQueues) {
    // kTokens distinct tokens circulate A -> B -> A ... through racing
    // mover threads.  Any loss, duplication, or invention breaks the
    // final census.
    const QueueOptions opt = this->options(3);
    TypeParam a(opt), b(opt);
    constexpr std::uint64_t kTokens = 64;
    constexpr std::uint64_t kMoves = 20'000;

    for (value_t t = 1; t <= kTokens; ++t) a.enqueue(t);

    std::atomic<std::uint64_t> moves{0};
    test::run_threads(4, [&](int id) {
        this->place(id);
        TypeParam& from = (id % 2 == 0) ? a : b;
        TypeParam& to = (id % 2 == 0) ? b : a;
        while (moves.load(std::memory_order_relaxed) < kMoves) {
            if (auto v = from.dequeue()) {
                to.enqueue(*v);
                moves.fetch_add(1, std::memory_order_relaxed);
            } else {
                std::this_thread::yield();
            }
        }
    });

    std::vector<bool> seen(kTokens + 1, false);
    std::uint64_t count = 0;
    for (auto* q : {&a, &b}) {
        while (auto v = q->dequeue()) {
            ASSERT_GE(*v, 1u);
            ASSERT_LE(*v, kTokens);
            ASSERT_FALSE(seen[*v]) << "token " << *v << " duplicated";
            seen[*v] = true;
            ++count;
        }
    }
    EXPECT_EQ(count, kTokens);
}

TEST(Stress, EveryQueueSurvivesHighChurnPairs) {
    QueueOptions opt;
    opt.ring_order = 4;
    opt.bounded_order = 12;
    opt.clusters = 2;
    opt.cluster_timeout_ns = 20'000;  // the catalog now carries -h entries
    for (const auto& info : queue_catalog()) {
        auto q = make_queue(info.name, opt);
        std::atomic<std::uint64_t> balance{0};
        test::run_threads(6, [&](int id) {
            topo::set_current_cluster(id % 2);
            Xoshiro256 rng(static_cast<std::uint64_t>(id) + 99);
            std::uint64_t local_enq = 0, local_deq = 0;
            for (int i = 0; i < 2'000; ++i) {
                if (rng.bounded(2) == 0) {
                    q->enqueue(test::tag(static_cast<unsigned>(id),
                                         static_cast<std::uint64_t>(i)));
                    ++local_enq;
                } else if (q->dequeue().has_value()) {
                    ++local_deq;
                }
            }
            balance.fetch_add(local_enq - local_deq);
        });
        std::uint64_t residue = 0;
        while (q->dequeue().has_value()) ++residue;
        EXPECT_EQ(residue, balance.load()) << info.name;
    }
}

TYPED_TEST(ListQueueStress, QueueConstructionChurnAcrossThreads) {
    // Hundreds of short-lived queues built and torn down on worker
    // threads: exercises hazard-record reuse, thread-id recycling, and
    // destructor paths under the dirtiest realistic lifecycle.
    test::run_threads(4, [&](int id) {
        this->place(id);
        for (int i = 0; i < 50; ++i) {
            const QueueOptions opt = this->options(2);
            TypeParam q(opt);
            for (value_t v = 1; v <= 20; ++v) {
                q.enqueue(test::tag(static_cast<unsigned>(id), v));
            }
            for (int d = 0; d < 10; ++d) ASSERT_TRUE(q.dequeue().has_value());
        }
    });
}

TYPED_TEST(ListQueueStress, LongRunSegmentTurnover) {
    // One long-lived list queue with tiny rings cycles through thousands
    // of segments; reclamation must keep the live list short throughout.
    const QueueOptions opt = this->options(2);
    TypeParam q(opt);
    std::atomic<bool> ok{true};
    test::run_threads(2, [&](int id) {
        this->place(id);
        if (id == 0) {
            for (std::uint64_t i = 0; i < 30'000; ++i) q.enqueue(test::tag(0, i));
        } else {
            std::uint64_t expected = 0;
            while (expected < 30'000) {
                if (auto v = q.dequeue()) {
                    if (test::tag_seq(*v) != expected) {
                        ok.store(false);
                        break;
                    }
                    ++expected;
                }
            }
        }
    });
    EXPECT_TRUE(ok.load()) << "single-producer FIFO order broke";
    q.hazard_domain().scan();
    EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    EXPECT_LE(q.segment_count(), 3u);
}

// The multilane front-ends under the same discipline, oversubscribed
// (more threads than lanes) so stealing and the emptiness certification
// run constantly.  (EveryQueueSurvivesHighChurnPairs already covers them
// via the catalog sweep; these pin the composite-specific invariants.)
template <typename Q>
class MultilaneStress : public ::testing::Test {
  protected:
    // Same virtual-cluster placement as ListQueueStress: inert for the
    // multilane types, but keeps the worker bodies uniform.
    static void place(int id) { topo::set_current_cluster(id % 2); }
};
using MlQueueTypes = ::testing::Types<MultilaneLcrq, MultilaneLscq>;
TYPED_TEST_SUITE(MultilaneStress, MlQueueTypes);

TYPED_TEST(MultilaneStress, TokenConservationBetweenTwoQueues) {
    QueueOptions opt;
    opt.ring_order = 3;
    opt.lanes = 2;
    TypeParam a(opt), b(opt);
    constexpr std::uint64_t kTokens = 64;
    constexpr std::uint64_t kMoves = 20'000;

    for (value_t t = 1; t <= kTokens; ++t) a.enqueue(t);

    std::atomic<std::uint64_t> moves{0};
    test::run_threads(4, [&](int id) {
        this->place(id);
        TypeParam& from = (id % 2 == 0) ? a : b;
        TypeParam& to = (id % 2 == 0) ? b : a;
        while (moves.load(std::memory_order_relaxed) < kMoves) {
            if (auto v = from.dequeue()) {
                to.enqueue(*v);
                moves.fetch_add(1, std::memory_order_relaxed);
            } else {
                std::this_thread::yield();
            }
        }
    });

    std::vector<bool> seen(kTokens + 1, false);
    std::uint64_t count = 0;
    for (auto* q : {&a, &b}) {
        while (auto v = q->dequeue()) {
            ASSERT_GE(*v, 1u);
            ASSERT_LE(*v, kTokens);
            ASSERT_FALSE(seen[*v]) << "token " << *v << " duplicated";
            seen[*v] = true;
            ++count;
        }
    }
    EXPECT_EQ(count, kTokens);
}

TYPED_TEST(MultilaneStress, ProducerHeavyExchangeKeepsPerProducerFifo) {
    // A producer-heavy shape at test scale: many producers, one consumer,
    // two lanes.  Full accounting plus per-producer order — the relaxed
    // contract the front-end actually promises.
    QueueOptions opt;
    opt.ring_order = 3;
    opt.lanes = 2;
    TypeParam q(opt);
    const auto received = test::mpmc_exchange(q, 5, 1, 800);
    test::expect_exchange_valid(received, 5, 800);
    EXPECT_FALSE(q.dequeue().has_value());
}

}  // namespace
}  // namespace lcrq
