// Segment pool (segment_pool.hpp) and in-place ring reset: pool unit
// behaviour (bounded capacity, ownership, concurrent push/pop), ring and
// segment reset, home-cluster recording and hugepage slabs (typed over
// the SCQ family's two segments, Scq and Wcq), and end-to-end recycling
// through the list queues (reuse typed over LCRQ, LSCQ and LwCQ; the
// rest, including the retired backlog read mid-run, through LSCQ).
//
// Deliberately TSan-eligible: every multi-threaded case here is dummy
// nodes or the CAS2-free SCQ family.  LCRQ appears only in the
// single-threaded reuse case (its concurrent pool paths are covered in
// test_lcrq and the injection suites, which run under ASan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/scq.hpp"
#include "queues/wcq.hpp"
#include "queues/segment_pool.hpp"
#include "test_support.hpp"
#include "topology/mem_policy.hpp"
#include "topology/topology.hpp"

namespace lcrq {
namespace {

// Minimal poolable segment: an intrusive next link plus a live-instance
// count so tests can see exactly when the pool deletes.
struct PoolNode {
    static std::atomic<int> live;
    std::atomic<PoolNode*> next{nullptr};
    PoolNode() { live.fetch_add(1, std::memory_order_relaxed); }
    ~PoolNode() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> PoolNode::live{0};

TEST(SegmentPool, PopEmptyReturnsNull) {
    SegmentPool<PoolNode> pool(4);
    EXPECT_EQ(pool.try_pop(), nullptr);
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.capacity(), 4u);
}

TEST(SegmentPool, PushPopRoundTrip) {
    SegmentPool<PoolNode> pool(4);
    auto* a = new PoolNode;
    auto* b = new PoolNode;
    EXPECT_TRUE(pool.push(a));
    EXPECT_TRUE(pool.push(b));
    EXPECT_EQ(pool.size(), 2u);
    std::set<PoolNode*> got;
    got.insert(pool.try_pop());
    got.insert(pool.try_pop());
    EXPECT_EQ(got, (std::set<PoolNode*>{a, b}));
    EXPECT_EQ(pool.try_pop(), nullptr);
    delete a;
    delete b;
}

TEST(SegmentPool, PoppedNodeHasCleanLink) {
    // try_pop must not leak the pool's internal chaining into the segment
    // the caller is about to publish.
    SegmentPool<PoolNode> pool(4);
    pool.push(new PoolNode);
    pool.push(new PoolNode);
    PoolNode* n = pool.try_pop();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->next.load(), nullptr);
    EXPECT_EQ(pool.size(), 1u);  // the remainder went back
    delete n;
}

TEST(SegmentPool, OverflowDeletesInsteadOfGrowing) {
    const int before = PoolNode::live.load();
    SegmentPool<PoolNode> pool(2);
    EXPECT_TRUE(pool.push(new PoolNode));
    EXPECT_TRUE(pool.push(new PoolNode));
    // At capacity: push still takes ownership but frees immediately.
    EXPECT_FALSE(pool.push(new PoolNode));
    EXPECT_FALSE(pool.push(new PoolNode));
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(PoolNode::live.load(), before + 2);
}

TEST(SegmentPool, ZeroCapacityAlwaysDeletes) {
    const int before = PoolNode::live.load();
    SegmentPool<PoolNode> pool(0);
    EXPECT_FALSE(pool.push(new PoolNode));
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(PoolNode::live.load(), before);
}

TEST(SegmentPool, DestructorFreesParkedSegments) {
    const int before = PoolNode::live.load();
    {
        SegmentPool<PoolNode> pool(8);
        for (int i = 0; i < 5; ++i) pool.push(new PoolNode);
        EXPECT_EQ(PoolNode::live.load(), before + 5);
    }
    EXPECT_EQ(PoolNode::live.load(), before);
}

TEST(SegmentPool, ConcurrentChurnNeitherLosesNorDoubles) {
    // Hammer pop/push from several threads.  Every node popped must be
    // exclusively owned (no double-pop of one node), and at the end every
    // node is either parked or was deleted by overflow — leak-checked via
    // the live counter once the pool dies.
    const int before = PoolNode::live.load();
    constexpr int kThreads = 4;
    constexpr int kIters = 4000;
    {
        SegmentPool<PoolNode> pool(16);
        std::atomic<std::uint64_t> popped{0};
        test::run_threads(kThreads, [&](int) {
            for (int i = 0; i < kIters; ++i) {
                PoolNode* n = pool.try_pop();
                if (n == nullptr) {
                    n = new PoolNode;
                } else {
                    popped.fetch_add(1, std::memory_order_relaxed);
                    // Exclusive ownership: writing the link races with
                    // nothing unless the pool double-handed the node.
                    n->next.store(n, std::memory_order_relaxed);
                    n->next.store(nullptr, std::memory_order_relaxed);
                }
                pool.push(n);
            }
        });
        EXPECT_GT(popped.load(), 0u) << "churn never recycled — pool inert?";
        // Approximate cap: concurrent pushers may overshoot by at most one
        // node each (see the capacity note in segment_pool.hpp).
        EXPECT_LE(pool.size(), 16u + kThreads);
    }
    EXPECT_EQ(PoolNode::live.load(), before);
}

// --- in-place reset ---------------------------------------------------------

// The SCQ family's segments (and, through Segment::Ring, their rings);
// suites are named by family member, "scq" or "wcq".
using FamilySegments = ::testing::Types<Scq<>, Wcq<>>;
struct SegmentName {
    template <typename Q>
    static std::string GetName(int) {
        return Q::Ring::kName;
    }
};

template <typename Q>
struct ScqFamilyRingReset : ::testing::Test {};
TYPED_TEST_SUITE(ScqFamilyRingReset, FamilySegments, SegmentName);

TYPED_TEST(ScqFamilyRingReset, BehavesLikeFreshRing) {
    typename TypeParam::Ring ring(3);  // capacity 8
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(ring.enqueue(i), EnqueueResult::kOk);
    }
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ring.dequeue().value_or(99), i);
    }
    ring.close();
    EXPECT_TRUE(ring.closed());

    ring.reset();
    EXPECT_FALSE(ring.closed());
    EXPECT_FALSE(ring.dequeue().has_value()) << "reset ring must be empty";
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(ring.enqueue(7 - i), EnqueueResult::kOk);
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(ring.dequeue().value_or(99), 7 - i);
    }
    EXPECT_FALSE(ring.dequeue().has_value());
}

TYPED_TEST(ScqFamilyRingReset, SeededResetMatchesSeededConstruction) {
    typename TypeParam::Ring ring(2, 0, 4);  // fq shape: holds 0..3
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ring.dequeue().value_or(99), i);
    }
    ring.reset(1, 3);  // now holds 1..2
    EXPECT_EQ(ring.dequeue().value_or(99), 1u);
    EXPECT_EQ(ring.dequeue().value_or(99), 2u);
    EXPECT_FALSE(ring.dequeue().has_value());
}

// The per-cluster ownership hint (§4.1.1 companion): push files a parked
// segment under the parking thread's cluster shard, try_pop serves the
// popper's home shard first, and only then scans the others — so a
// recycled segment's lines tend to stay inside the cluster that last
// touched them, without ever failing a pop that any shard could serve.
TEST(SegmentPool, ClusterHintFilesAndPrefersHomeShard) {
    SegmentPool<PoolNode> pool(8);
    auto* parked0 = new PoolNode;
    auto* parked1 = new PoolNode;
    topo::set_current_cluster(0);
    EXPECT_TRUE(pool.push(parked0));
    topo::set_current_cluster(1);
    EXPECT_TRUE(pool.push(parked1));
    EXPECT_EQ(pool.shard_size(0), 1u);
    EXPECT_EQ(pool.shard_size(1), 1u);

    // A cluster-1 popper is served from its own shard, not cluster 0's.
    EXPECT_EQ(pool.try_pop(), parked1);
    topo::set_current_cluster(0);
    EXPECT_EQ(pool.try_pop(), parked0);

    // The hint never strands a segment: a popper whose home shard is
    // empty scans the rest and still finds the foreign-parked one.
    topo::set_current_cluster(1);
    EXPECT_TRUE(pool.push(parked1));
    topo::set_current_cluster(0);
    EXPECT_EQ(pool.shard_size(0), 0u);
    EXPECT_EQ(pool.try_pop(), parked1);
    EXPECT_EQ(pool.try_pop(), nullptr);
    delete parked0;
    delete parked1;
    topo::set_current_cluster(0);
}

// Regression for the counting data race: shard_size()/size() used to walk
// the shard's intrusive chain through raw `next` loads, racing with the
// whole-stack exchange in try_pop and the over-capacity `delete` in push
// — a use-after-free an observer thread could hit under churn.  Counting
// is per-shard atomic counters now; this hammers the accessors from an
// observer while workers churn, and samples the capacity bound *live*
// rather than only after quiescence.  The workers start churning only
// once the observer has taken its first sample, so the reads overlap the
// frees by construction, however the threads get scheduled.
TEST(SegmentPool, SizeAccessorsRaceChurnWithoutTouchingFreedNodes) {
    constexpr int kWorkers = 3;
    constexpr std::size_t kCap = 8;
    constexpr int kIters = 6000;
    const int before = PoolNode::live.load();
    {
        SegmentPool<PoolNode> pool(kCap);
        std::atomic<bool> done{false};
        std::atomic<std::uint64_t> samples{0};
        std::thread observer([&] {
            constexpr int kClusterSpan =
                2 * static_cast<int>(SegmentPool<PoolNode>::kShards);
            while (!done.load(std::memory_order_acquire)) {
                // The documented bound is capacity + in-flight pushers;
                // reading the per-shard counters one at a time adds up to
                // one more count of skew per worker mid-migration (its
                // node tallied in the old shard and already in the new).
                EXPECT_LE(pool.size(), kCap + 2 * kWorkers);
                for (int c = 0; c < kClusterSpan; ++c) {
                    (void)pool.shard_size(c);
                }
                samples.fetch_add(1, std::memory_order_relaxed);
            }
        });
        test::run_threads(kWorkers, [&](int t) {
            // Bounded: an observer that never samples fails the
            // EXPECT_GT below rather than hanging the test.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (samples.load(std::memory_order_relaxed) == 0 &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            for (int i = 0; i < kIters; ++i) {
                topo::set_current_cluster((t + i) % 3);
                // Interleave *frees* with the observer's reads: a quarter
                // of iterations injects a fresh node without popping (so
                // over-capacity pushes delete), another quarter deletes
                // the popped node outright.  Concurrent delete is what
                // made the old chain-walking accessors a use-after-free.
                if (i % 4 == 0) {
                    pool.push(new PoolNode);
                } else if (PoolNode* n = pool.try_pop(); n != nullptr) {
                    if (i % 4 == 1) {
                        delete n;
                    } else {
                        pool.push(n);
                    }
                } else {
                    pool.push(new PoolNode);
                }
            }
        });
        done.store(true, std::memory_order_release);
        observer.join();
        EXPECT_GT(samples.load(), 0u);
    }
    EXPECT_EQ(PoolNode::live.load(), before);
    topo::set_current_cluster(0);
}

TEST(SegmentPool, ClustersBeyondShardCountWrapToTheirShard) {
    // Virtual topologies can hand out more clusters than the pool has
    // shards; a cluster id >= kShards must keep filing, counting, and
    // home-first popping coherent on its wrapped shard.
    constexpr int kWrap = static_cast<int>(SegmentPool<PoolNode>::kShards);
    SegmentPool<PoolNode> pool(8);
    auto* near_node = new PoolNode;
    auto* far_node = new PoolNode;
    topo::set_current_cluster(1);
    EXPECT_TRUE(pool.push(near_node));
    topo::set_current_cluster(1 + kWrap);
    EXPECT_TRUE(pool.push(far_node));
    // Same shard from both spellings of the cluster.
    EXPECT_EQ(pool.shard_size(1), 2u);
    EXPECT_EQ(pool.shard_size(1 + kWrap), 2u);
    EXPECT_EQ(pool.shard_size(0), 0u);

    // A wrapped popper is *home* on that shard: its pop counts local.
    const auto before = stats::global_snapshot();
    PoolNode* a = pool.try_pop();
    PoolNode* b = pool.try_pop();
    const auto d = stats::global_snapshot() - before;
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(d[stats::Event::kSegmentPopLocal], 2u);
    EXPECT_EQ(d[stats::Event::kSegmentPopRemote], 0u);
    delete a;
    delete b;
    topo::set_current_cluster(0);
}

// Segments that know where their memory lives (home_cluster(), i.e. the
// cluster whose node first-touched the ring pages) are filed under *that*
// shard regardless of which thread parks them — page residency, not the
// parking thread's whereabouts, is what makes a recycled segment cheap.
struct HomeNode {
    std::atomic<HomeNode*> next{nullptr};
    int home;
    explicit HomeNode(int h = -1) : home(h) {}
    int home_cluster() const noexcept { return home; }
};

TEST(SegmentPool, FilesBySegmentHomeClusterWhenExposed) {
    SegmentPool<HomeNode> pool(8);
    topo::set_current_cluster(3);
    auto* homed = new HomeNode(1);
    auto* unhomed = new HomeNode(-1);
    EXPECT_TRUE(pool.push(homed));    // files under its home, not the parker
    EXPECT_TRUE(pool.push(unhomed));  // no home recorded: the parker's shard
    EXPECT_EQ(pool.shard_size(1), 1u);
    EXPECT_EQ(pool.shard_size(3), 1u);

    topo::set_current_cluster(1);
    EXPECT_EQ(pool.try_pop(), homed);
    topo::set_current_cluster(3);
    EXPECT_EQ(pool.try_pop(), unhomed);
    delete homed;
    delete unhomed;
    topo::set_current_cluster(0);
}

template <typename Q>
struct ScqFamilyReset : ::testing::Test {};
TYPED_TEST_SUITE(ScqFamilyReset, FamilySegments, SegmentName);

TYPED_TEST(ScqFamilyReset, DrainedClosedSegmentRecyclesToSeededState) {
    TypeParam q(2);
    for (value_t v = 10; v < 14; ++v) {
        EXPECT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    for (value_t v = 10; v < 14; ++v) {
        EXPECT_EQ(q.dequeue().value_or(0), v);
    }
    q.close();
    EXPECT_TRUE(q.closed());
    q.next.store(reinterpret_cast<TypeParam*>(0x1), std::memory_order_relaxed);

    // As the list appends: "initialized to contain x".
    q.reset(QueueOptions{.ring_order = 2}, value_t{42});
    EXPECT_FALSE(q.closed());
    EXPECT_EQ(q.next.load(), nullptr);
    EXPECT_EQ(q.dequeue().value_or(0), 42u);
    EXPECT_FALSE(q.dequeue().has_value());
    for (value_t v = 0; v < 4; ++v) {
        EXPECT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    EXPECT_EQ(q.try_enqueue(99), EnqueueResult::kFull) << "capacity must survive reset";
}

// --- end-to-end recycling through the list queues ---------------------------

QueueOptions tiny_rings(std::size_t pool_cap = 16) {
    QueueOptions opt;
    opt.ring_order = 2;  // capacity-4 segments: every 5th enqueue closes one
    opt.segment_pool_cap = pool_cap;
    return opt;
}

// Every list backend recycles through the one pool path in
// LinkedSegments; suites are named by list queue.
using ListQueues = ::testing::Types<LcrqQueue, LscqQueue, LwcqQueue>;
struct ListName {
    template <typename Q>
    static std::string GetName(int) {
        return Q::kName;
    }
};

template <typename Q>
struct ListSegmentPool : ::testing::Test {};
TYPED_TEST_SUITE(ListSegmentPool, ListQueues, ListName);

TYPED_TEST(ListSegmentPool, CloseHeavyChurnReusesSegments) {
    const auto before = stats::global_snapshot();
    TypeParam q(tiny_rings());
    value_t next_in = 0, next_out = 0;
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 6; ++i) q.enqueue(next_in++);
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(q.dequeue().value_or(~0ull), next_out++);
        }
    }
    EXPECT_FALSE(q.dequeue().has_value());
    const auto d = stats::global_snapshot() - before;
    const auto reuse = d[stats::Event::kSegmentReuse];
    const auto alloc = d[stats::Event::kSegmentAlloc];
    ASSERT_GT(reuse + alloc, 100u) << "churn did not close segments";
    // Steady state: everything beyond the first few segments recycles.
    EXPECT_GE(static_cast<double>(reuse) / static_cast<double>(reuse + alloc),
              0.9);
}

TEST(LscqSegmentPool, NoPoolVariantNeverReuses) {
    const auto before = stats::global_snapshot();
    LscqQueue q(tiny_rings(/*pool_cap=*/0));
    value_t next_in = 0, next_out = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 6; ++i) q.enqueue(next_in++);
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(q.dequeue().value_or(~0ull), next_out++);
        }
    }
    const auto d = stats::global_snapshot() - before;
    EXPECT_EQ(d[stats::Event::kSegmentReuse], 0u);
    EXPECT_EQ(d[stats::Event::kSegmentPopLocal] + d[stats::Event::kSegmentPopRemote], 0u);
    EXPECT_GT(d[stats::Event::kSegmentAlloc], 25u);
}

TEST(LscqSegmentPool, PoolCapacityBoundsParkedSegments) {
    LscqQueue q(tiny_rings(/*pool_cap=*/2));
    for (value_t v = 0; v < 400; ++v) q.enqueue(v);  // ~100 segments live
    for (value_t v = 0; v < 400; ++v) {
        ASSERT_EQ(q.dequeue().value_or(~0ull), v);
    }
    // All but the live tail segment were retired; the pool kept at most
    // its cap (single-threaded here, so the bound is exact).
    EXPECT_LE(q.segment_pool().size(), 2u);
    EXPECT_EQ(q.segment_count(), 1u);
}

TEST(LscqSegmentPool, MpmcChurnWithRecyclingKeepsFifo) {
    // Concurrent producers/consumers over tiny segments with a tiny pool:
    // recycled segments must behave exactly like fresh ones (no lost, no
    // duplicated, per-producer FIFO).
    LscqQueue q(tiny_rings(/*pool_cap=*/4));
    const auto received = test::mpmc_exchange(q, 2, 2, 3000);
    test::expect_exchange_valid(received, 2, 3000);
    const auto after = stats::global_snapshot();
    EXPECT_GT(after[stats::Event::kSegmentReuse], 0u);
}

TEST(LscqSegmentPool, RetiredCountIsARaceFreeSmallReadingMidRun) {
    // hazard_domain().retired_count() is read while the queue runs
    // (perfbench's traced backlog probe polls it), so it must be a defined
    // read while the owners retire and drain (TSan matrix), and a real
    // figure.  Two threads run enqueue/dequeue pairs in bursts of five, so
    // every burst closes a capacity-4 segment; the retiring thread drains
    // eagerly, so each of the two records holds at most the segment the
    // other thread protects plus the one just retired.
    const auto before = stats::global_snapshot();
    LscqQueue q(tiny_rings());
    constexpr int kBursts = 2'000;
    constexpr int kBurst = 5;
    std::atomic<int> running{2};
    std::size_t peak = 0;
    std::uint64_t readings = 0;
    test::run_threads(3, [&](int id) {
        if (id == 2) {
            do {
                peak = std::max(peak, q.hazard_domain().retired_count());
                ++readings;
            } while (running.load() > 0);
            return;
        }
        for (int b = 0; b < kBursts; ++b) {
            for (int i = 0; i < kBurst; ++i) {
                q.enqueue(test::tag(static_cast<unsigned>(id),
                                    static_cast<std::uint64_t>(b * kBurst + i)));
            }
            for (int i = 0; i < kBurst; ++i) (void)q.dequeue();
        }
        running.fetch_sub(1);
    });
    const auto d = stats::global_snapshot() - before;
    ASSERT_GT(d[stats::Event::kSegmentReuse], 0u) << "no segment went through retire";
    EXPECT_GT(readings, 0u);
    EXPECT_LE(peak, 4u);
}

// --- NUMA-local substrate ---------------------------------------------------

template <typename Q>
struct ScqFamilyHomeCluster : ::testing::Test {};
TYPED_TEST_SUITE(ScqFamilyHomeCluster, FamilySegments, SegmentName);

TYPED_TEST(ScqFamilyHomeCluster, RecordsAllocatingCluster) {
    // The allocating thread's cluster is the segment's home for the rest
    // of its life (reset never moves the memory); a virtual-topology
    // cluster id beyond the host's shape must be recorded verbatim.
    topo::set_current_cluster(5);
    TypeParam q(2);
    EXPECT_EQ(q.home_cluster(), 5);
    q.reset(QueueOptions{.ring_order = 2}, value_t{9});
    EXPECT_EQ(q.home_cluster(), 5);
    EXPECT_EQ(q.dequeue().value_or(0), 9u);
    topo::set_current_cluster(0);
}

TEST(LscqSegmentPool, SingleClusterChurnPopsOnlyItsHomeShard) {
    // End-to-end NUMA locality: with all traffic on one (virtual) cluster,
    // every recycled segment files under that cluster's shard and every
    // pool pop is served home-first — zero remote pops.
    const topo::Topology virt = topo::make_virtual(topo::discover(), 4);
    ASSERT_GE(virt.num_clusters, 4);
    topo::set_current_cluster(2);
    const auto before = stats::global_snapshot();
    {
        LscqQueue q(tiny_rings());
        value_t in = 0, out = 0;
        for (int round = 0; round < 100; ++round) {
            for (int i = 0; i < 6; ++i) q.enqueue(in++);
            for (int i = 0; i < 6; ++i) {
                EXPECT_EQ(q.dequeue().value_or(~0ull), out++);
            }
        }
    }
    const auto d = stats::global_snapshot() - before;
    EXPECT_GT(d[stats::Event::kSegmentReuse], 0u);
    EXPECT_GT(d[stats::Event::kSegmentPopLocal], 0u);
    EXPECT_EQ(d[stats::Event::kSegmentPopRemote], 0u);
    topo::set_current_cluster(0);
}

// --- hugepage-backed slabs --------------------------------------------------

TEST(HugeSegments, SlabAllocHonorsForceNoThp) {
    // LCRQ_FORCE_NO_THP is the CI/test switch for "host without THP":
    // the huge request must fall back to a plain allocation that is
    // still fully usable, and the env var is re-read per call so test
    // order can't latch a stale answer.
    ::setenv("LCRQ_FORCE_NO_THP", "1", 1);
    EXPECT_FALSE(mem::thp_available());
    mem::Slab s = mem::slab_alloc(std::size_t{1} << 20, 64, {true, 0});
    ASSERT_TRUE(static_cast<bool>(s));
    EXPECT_FALSE(s.huge_backed);
    std::memset(s.ptr, 0xAB, std::size_t{1} << 20);
    mem::slab_free(s);
    ::unsetenv("LCRQ_FORCE_NO_THP");
}

template <typename Q>
struct ScqFamilyHugeSegments : ::testing::Test {};
TYPED_TEST_SUITE(ScqFamilyHugeSegments, FamilySegments, SegmentName);

TYPED_TEST(ScqFamilyHugeSegments, ForcedFallbackRingStaysPlainAndCorrect) {
    ::setenv("LCRQ_FORCE_NO_THP", "1", 1);
    TypeParam q(kHugeMinRingOrder, std::nullopt, {}, /*huge=*/true);
    EXPECT_FALSE(q.huge_backed());
    for (value_t v = 0; v < 100; ++v) {
        EXPECT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    for (value_t v = 0; v < 100; ++v) {
        EXPECT_EQ(q.dequeue().value_or(~0ull), v);
    }
    ::unsetenv("LCRQ_FORCE_NO_THP");
}

TYPED_TEST(ScqFamilyHugeSegments, SmallRingsNeverAskForHugepages) {
    // Below kHugeMinRingOrder the 2 MiB rounding would waste more memory
    // than the dTLB entries it saves: the opt-in is ignored.
    TypeParam q(2, std::nullopt, {}, /*huge=*/true);
    EXPECT_FALSE(q.huge_backed());
    EXPECT_EQ(q.try_enqueue(7), EnqueueResult::kOk);
    EXPECT_EQ(q.dequeue().value_or(0), 7u);
}

TYPED_TEST(ScqFamilyHugeSegments, OptInLargeRingWorksWithOrWithoutThp) {
    // Whether this host grants THP or not, the opt-in ring must behave
    // identically; when it is granted, the kSegmentHuge counter records
    // the mapping.
    const auto before = stats::global_snapshot();
    TypeParam q(kHugeMinRingOrder, std::nullopt, {}, /*huge=*/true);
    const auto d = stats::global_snapshot() - before;
    if (q.huge_backed()) {
        EXPECT_GE(d[stats::Event::kSegmentHuge], 1u);
    }
    for (value_t v = 0; v < 64; ++v) {
        EXPECT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    }
    for (value_t v = 0; v < 64; ++v) {
        EXPECT_EQ(q.dequeue().value_or(~0ull), v);
    }
}

}  // namespace
}  // namespace lcrq
