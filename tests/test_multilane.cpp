// Multilane front-end: lane mapping, the relaxed per-producer FIFO
// contract, certified EMPTY answers, the bulk paths, and the structural
// coordination-free claim — an ml enqueue must execute exactly as many
// F&A as its base queue (the presence bookkeeping is single-writer plain
// stores, not RMWs).
//
// Multi-threaded cases run on MultilaneLscq only: TSan cannot instrument
// cmpxchg16b, so the LCRQ lanes stay out of the sanitizer binaries (the
// front-end under test is the same template either way).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "arch/thread_id.hpp"
#include "queues/lcrq.hpp"
#include "queues/multilane.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

using test::tag;

TEST(Multilane, LaneCountHonorsOptionAndClamps) {
    QueueOptions opt;
    opt.lanes = 4;
    MultilaneLscq q4(opt);
    EXPECT_EQ(q4.lane_count(), 4u);

    opt.lanes = kMaxLanes + 17;
    MultilaneLscq clamped(opt);
    EXPECT_EQ(clamped.lane_count(), kMaxLanes);

    opt.lanes = 0;  // auto: one per CPU, but always at least two
    MultilaneLscq deflt(opt);
    EXPECT_GE(deflt.lane_count(), 2u);
}

TEST(Multilane, HomeLaneIsDenseIdModuloLanes) {
    QueueOptions opt;
    opt.lanes = 3;
    MultilaneLscq q(opt);
    EXPECT_EQ(q.home_lane(), thread_index() % 3);
}

TEST(Multilane, SingleThreadIsPlainFifo) {
    QueueOptions opt;
    opt.lanes = 4;
    MultilaneLscq q(opt);
    for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(tag(0, i));
    for (std::uint64_t i = 0; i < 100; ++i) {
        const auto v = q.dequeue();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, tag(0, i)) << "same producer, same lane: FIFO";
    }
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Multilane, EmptyIsCertifiedNotGuessed) {
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    EXPECT_FALSE(q.dequeue().has_value());

    // An item enqueued from *another* thread (possibly another lane) must
    // be found by this thread's scan, wherever it landed.
    std::thread([&] { q.enqueue(42); }).join();
    EXPECT_EQ(q.dequeue().value_or(0), 42u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Multilane, SingleThreadDequeuesAreLocalHits) {
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    for (std::uint64_t i = 0; i < 8; ++i) q.enqueue(tag(0, i));
    const stats::Snapshot before = stats::global_snapshot();
    for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(q.dequeue().has_value());
    const stats::Snapshot delta = stats::global_snapshot() - before;
    EXPECT_EQ(delta[stats::Event::kLaneLocalHit], 8u)
        << "own items sit in the home lane; the steal hint must not wander";
    EXPECT_EQ(delta[stats::Event::kLaneSteal], 0u);
}

// The coordination-free witness, per lane queue type: N enqueues on the
// multilane front-end execute exactly the same number of F&A as N on the
// bare base queue.  The only RMW the front-end may add is the one-time
// attach CAS per (thread, lane) of the lane's ThreadTable.
template <typename Base, typename Ml>
void expect_zero_frontend_rmw() {
    constexpr std::uint64_t kOps = 1000;
    QueueOptions opt;
    opt.lanes = 2;

    Base base(opt);
    const stats::Snapshot b0 = stats::global_snapshot();
    for (std::uint64_t i = 0; i < kOps; ++i) base.enqueue(tag(0, i));
    const stats::Snapshot base_delta = stats::global_snapshot() - b0;

    Ml ml(opt);
    const stats::Snapshot m0 = stats::global_snapshot();
    for (std::uint64_t i = 0; i < kOps; ++i) ml.enqueue(tag(0, i));
    const stats::Snapshot ml_delta = stats::global_snapshot() - m0;

    EXPECT_EQ(ml_delta[stats::Event::kFaa], base_delta[stats::Event::kFaa])
        << "presence bookkeeping leaked an F&A into the enqueue hot path";
    EXPECT_LE(ml_delta[stats::Event::kCas] - base_delta[stats::Event::kCas], 1u)
        << "only ThreadTable's one-time first-use attach CAS is allowed";
    EXPECT_EQ(ml_delta.atomic_ops() - ml_delta[stats::Event::kCas],
              base_delta.atomic_ops() - base_delta[stats::Event::kCas])
        << "no other RMW kind may appear either";
}

TEST(Multilane, EnqueueAddsZeroRmwOverLscq) {
    expect_zero_frontend_rmw<LscqQueue, MultilaneLscq>();
}

TEST(Multilane, EnqueueAddsZeroRmwOverLcrq) {
    expect_zero_frontend_rmw<LcrqQueue, MultilaneLcrq>();
}

TEST(Multilane, BulkRoundTripAndCertifiedEmptyZero) {
    QueueOptions opt;
    opt.lanes = 4;
    MultilaneLscq q(opt);

    std::vector<value_t> items;
    for (std::uint64_t i = 0; i < 40; ++i) items.push_back(tag(0, i));
    q.enqueue_bulk(items);

    value_t out[16];
    std::vector<value_t> got;
    for (;;) {
        const std::size_t n = q.dequeue_bulk(out, 16);
        if (n == 0) break;  // certified empty
        got.insert(got.end(), out, out + n);
    }
    ASSERT_EQ(got.size(), items.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], items[i]) << "one producer: bulk keeps FIFO";
    }
    EXPECT_EQ(q.dequeue_bulk(out, 16), 0u);
}

TEST(Multilane, MpmcExchangeKeepsPerProducerFifo) {
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    const auto received = test::mpmc_exchange(q, 2, 2, 2000);
    test::expect_exchange_valid(received, 2, 2000);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Multilane, OversubscribedChurnConservesTokens) {
    // More threads than lanes, every thread both produces and consumes;
    // nothing may be lost, duplicated, or invented, and the final drain
    // must find exactly the residue.
    QueueOptions opt;
    opt.lanes = 2;
    MultilaneLscq q(opt);
    constexpr int kThreads = 6;
    constexpr std::uint64_t kPer = 500;
    std::atomic<std::uint64_t> dequeued{0};
    test::run_threads(kThreads, [&](int id) {
        std::uint64_t got = 0;
        for (std::uint64_t i = 0; i < kPer; ++i) {
            q.enqueue(tag(static_cast<unsigned>(id), i));
            if (q.dequeue().has_value()) ++got;
        }
        dequeued.fetch_add(got, std::memory_order_relaxed);
    });
    std::uint64_t drained = 0;
    while (q.dequeue().has_value()) ++drained;
    EXPECT_EQ(dequeued.load() + drained,
              static_cast<std::uint64_t>(kThreads) * kPer);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Multilane, VariantNameNamesTheLaneQueue) {
    EXPECT_EQ(MultilaneLscq::variant_name(), "multilane<lscq>");
    EXPECT_EQ(MultilaneLcrq::variant_name(), "multilane<lcrq>");
}

}  // namespace
}  // namespace lcrq
