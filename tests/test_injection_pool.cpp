// Schedule injection for segment recycling: the pool must never hand a
// segment back into circulation while any thread still protects it, and a
// dequeuer parked across a recycling burst must not be able to ABA the
// list head.  Typed over LSCQ and LwCQ — the one list layer
// (linked_segments.hpp) over both CAS2-free backends, so this binary runs
// under TSan (the LCRQ-side twin lives in test_injection_lcrq, covered by
// ASan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/segment_pool.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "verify/history.hpp"
#include "verify/lin_check.hpp"
#include "verify/schedule_injection.hpp"

namespace lcrq {
namespace {

using inject::Controller;
using inject::Point;
using test::run_threads;
using test::tag;

Controller& ctl() { return Controller::instance(); }

template <typename Q>
struct InjectPool : ::testing::Test {
    void SetUp() override { ctl().reset(); }
    void TearDown() override { ctl().reset(); }
};

struct QueueName {
    template <typename Q>
    static std::string GetName(int) {
        return Q::kName;
    }
};

using PoolQueues = ::testing::Types<LscqQueue, LwcqQueue>;
TYPED_TEST_SUITE(InjectPool, PoolQueues, QueueName);

QueueOptions tiny_segments(std::size_t pool_cap) {
    QueueOptions opt;
    opt.ring_order = 2;  // capacity-4 segments: constant closes
    opt.segment_pool_cap = pool_cap;
    return opt;
}

template <typename Cond>
void await(Cond cond) {
    while (!cond()) std::this_thread::yield();
}

// Build the canonical recycling precondition: segment A drained but still
// the list head, with a successor holding exactly one item.  5 enqueues
// fill A (4), close it, and append B seeded with item 4; 4 dequeues drain
// A without swinging head.
template <typename Q>
void stage_drained_head(Q& q) {
    for (value_t v = 0; v < 5; ++v) q.enqueue(v);
    for (value_t v = 0; v < 4; ++v) {
        ASSERT_EQ(q.dequeue().value_or(~0ull), v);
    }
    ASSERT_EQ(q.segment_count(), 2u);
}

// The tentpole property, forced deterministically: a dequeuer (B) parks at
// its EMPTY observation with segment A published in its hazard slot; a
// second thread (X) swings head past A and retires it, then churns hard
// enough that the pool is recycling segments.  While B is provably still
// parked, A must be retired-but-withheld — on a hazard record, not in the
// pool, never re-issued — and only after B completes and the domain scans
// may A reach the pool.
TYPED_TEST(InjectPool, PinnedSegmentIsWithheldFromPoolUntilProtectorReleases) {
    const auto before = stats::global_snapshot();
    TypeParam q(tiny_segments(/*pool_cap=*/4));
    stage_drained_head(q);

    ctl().set_hold_deadline(std::chrono::seconds{10});
    // B parks holding A until X has pushed 3 segments through retirement.
    ctl().hold_until(0, Point::kListEmptyObserved, 1, 1, Point::kHazardRetire, 3);
    ctl().arm();

    constexpr int kRounds = 6;
    std::optional<value_t> got0;
    std::vector<value_t> got1;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            got0 = q.dequeue();  // parks at EMPTY, slot 0 = segment A
        } else {
            await([&] { return ctl().visits(0, Point::kListEmptyObserved) >= 1; });
            // Swings head past A and retires it; the eager drain must see
            // B's slot and keep A.  The loop then lands on B's segment and
            // returns item 4.
            if (auto v = q.dequeue()) got1.push_back(*v);
            EXPECT_GE(q.hazard_domain().retired_count(), 1u)
                << "A was freed or pooled despite the parked protector";
            EXPECT_EQ(q.segment_pool().size(), 0u)
                << "the pinned segment leaked into the pool";
            const auto mid = stats::global_snapshot() - before;
            EXPECT_EQ(mid[stats::Event::kSegmentReuse], 0u)
                << "something was re-issued before any segment was free";
            // Now churn: every round closes and retires at least one
            // segment, so recycling runs while A stays pinned (B is parked
            // until the 3rd retirement at the earliest).
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
    EXPECT_GE(ctl().visits(1, Point::kHazardRetire), 3u);

    // Recycling did happen while the protector was parked.
    const auto d = stats::global_snapshot() - before;
    EXPECT_GE(d[stats::Event::kSegmentReuse], 1u)
        << "churn never recycled — the window tested nothing";

    // Exactly the enqueued set {0..4+6*kRounds-1} came out, no loss, no
    // duplicate (a recycled-while-held A would corrupt this).
    constexpr value_t kTotal = 5 + 6 * kRounds;
    std::set<value_t> seen;
    for (value_t v = 0; v < 4; ++v) seen.insert(v);  // staged drain
    if (got0.has_value()) EXPECT_TRUE(seen.insert(*got0).second) << *got0;
    for (value_t v : got1) EXPECT_TRUE(seen.insert(v).second) << v;
    while (auto v = q.dequeue()) EXPECT_TRUE(seen.insert(*v).second) << *v;
    EXPECT_EQ(seen.size(), kTotal);
    for (value_t v : seen) EXPECT_LT(v, kTotal);

    // Quiescent now: the scan finds A unprotected and the retire-to-pool
    // deleter finally parks it.
    q.hazard_domain().scan();
    EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    EXPECT_GE(q.segment_pool().size(), 1u);
    EXPECT_LE(q.segment_pool().size(), q.segment_pool().capacity());
}

// The ABA probe: B parks one step later — at kListHeadSwing, holding a
// head-swing CAS whose expected pointer is segment A — while X retires A
// and then recycles other segments through a capacity-1 pool.  Because A
// is hazard-pinned it can never re-enter circulation, so when B resumes
// its CAS must simply fail and retry on the live list; with a pool that
// ignored hazards, A could be re-issued, re-appended, and B's stale
// next-pointer would sever the queue.
TYPED_TEST(InjectPool, ParkedHeadSwingCannotAbaAcrossRecycling) {
    const auto before = stats::global_snapshot();
    TypeParam q(tiny_segments(/*pool_cap=*/1));
    stage_drained_head(q);

    ctl().set_hold_deadline(std::chrono::seconds{10});
    ctl().hold_until(0, Point::kListHeadSwing, 1, 1, Point::kHazardRetire, 4);
    ctl().arm();

    constexpr int kRounds = 8;
    std::optional<value_t> got0;
    std::vector<value_t> got1;
    run_threads(2, [&](int id) {
        ctl().bind_thread(id);
        if (id == 0) {
            got0 = q.dequeue();  // parks with the stale (A, B) CAS pending
        } else {
            await([&] { return ctl().visits(0, Point::kListHeadSwing) >= 1; });
            // 6 in / 5 out per round: the queue grows, head keeps crossing
            // segment boundaries, and with a single pool slot every close
            // wants to recycle exactly where A would sit if it leaked.
            value_t next_in = 5;
            for (int round = 0; round < kRounds; ++round) {
                for (int i = 0; i < 6; ++i) q.enqueue(next_in++);
                for (int i = 0; i < 5; ++i) {
                    if (auto v = q.dequeue()) got1.push_back(*v);
                }
            }
        }
    });

    EXPECT_EQ(ctl().hold_timeouts(), 0u) << "window was not constructed";
    EXPECT_GE(ctl().visits(1, Point::kHazardRetire), 4u);
    const auto d = stats::global_snapshot() - before;
    EXPECT_GE(d[stats::Event::kSegmentReuse], 1u)
        << "nothing recycled across the parked CAS — the window tested nothing";

    constexpr value_t kTotal = 5 + 6 * kRounds;
    std::set<value_t> seen;
    for (value_t v = 0; v < 4; ++v) seen.insert(v);
    if (got0.has_value()) EXPECT_TRUE(seen.insert(*got0).second) << *got0;
    for (value_t v : got1) EXPECT_TRUE(seen.insert(v).second) << v;
    while (auto v = q.dequeue()) EXPECT_TRUE(seen.insert(*v).second) << *v;
    EXPECT_EQ(seen.size(), kTotal) << "the stale head swing severed the list";

    q.hazard_domain().scan();
    EXPECT_EQ(q.hazard_domain().retired_count(), 0u);
    EXPECT_LE(q.segment_pool().size(), 1u) << "pool overflowed its capacity";
}

// Seeded perturbation sweep over the recycling-heavy configuration:
// capacity-4 segments, capacity-2 pool, 2x2 MPMC with full history
// recording.  Every seed must stay linearizable, actually recycle, and
// reclaim everything by the end.  Failures print their replay line.
//
// `cluster_of` maps a worker id to the (virtual) cluster it claims via
// topo::set_current_cluster, so the same sweep runs both on the default
// single-cluster shape and spread across a virtual topology whose ids
// exceed the pool's shard count — the pool's filing, counting, and
// home-first popping must be schedule-independent under either shape.
template <typename Q>
void recycling_sweep(const std::function<int(int)>& cluster_of) {
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 60;
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;

    for (const std::uint64_t seed : test::inject_seeds(0x9001, 6)) {
        ctl().reset();
        ctl().arm_random(seed, /*delay_per_256=*/64);
        const auto before = stats::global_snapshot();
        Q q(tiny_segments(/*pool_cap=*/2));

        std::vector<verify::ThreadLog> logs;
        for (int t = 0; t < kProducers + kConsumers; ++t) logs.emplace_back(t);
        std::atomic<std::uint64_t> consumed{0};

        run_threads(kProducers + kConsumers, [&](int id) {
            ctl().bind_thread(id);
            topo::set_current_cluster(cluster_of(id));
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

        const auto d = stats::global_snapshot() - before;
        EXPECT_GT(d[stats::Event::kSegmentReuse], 0u)
            << "sweep never recycled\nreplay: " << ctl().replay_hint();
        q.hazard_domain().scan();
        EXPECT_EQ(q.hazard_domain().retired_count(), 0u)
            << "replay: " << ctl().replay_hint();
    }
}

TYPED_TEST(InjectPool, RandomPerturbationSweepRecyclingStaysLinearizable) {
    recycling_sweep<TypeParam>([](int) { return 0; });
}

TYPED_TEST(InjectPool, RandomPerturbationSweepAcrossVirtualClusters) {
    // Spread the four workers over a virtual topology whose cluster ids
    // straddle the pool's shard count (0, 5, 10, 15 with kShards = 8):
    // segments file under wrapped shards and recycled pops cross shards,
    // under the same injected schedules as the single-cluster sweep.
    const topo::Topology virt = topo::make_virtual(topo::discover(), 4);
    ASSERT_GE(virt.num_clusters, 4);
    static_assert(SegmentPool<int>::kShards == 8,
                  "cluster spread below assumes 8 shards");
    recycling_sweep<TypeParam>([](int id) { return id * 5; });
    topo::set_current_cluster(0);
}

}  // namespace
}  // namespace lcrq
