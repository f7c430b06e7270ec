// Compile-time contracts: every queue models the ConcurrentQueue concept,
// the blocking facade's bases model its base contract, the reserved-value
// scheme is coherent, cache-line helpers have the layout they promise, and
// QueueOptions defaults are sane.
#include <gtest/gtest.h>

#include "arch/cacheline.hpp"
#include "queues/blocking_queue.hpp"
#include "queues/bounded_mpmc_queue.hpp"
#include "queues/combining.hpp"
#include "queues/fc_queue.hpp"
#include "queues/infinite_array_queue.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/ms_queue.hpp"
#include "queues/mutex_queue.hpp"
#include "queues/queue_common.hpp"
#include "queues/two_lock_queue.hpp"
#include "queues/wcq.hpp"
#include "registry/queue_registry.hpp"

namespace lcrq {
namespace {

// Every implementation must model the shared concept.
static_assert(ConcurrentQueue<LcrqQueue>);
static_assert(ConcurrentQueue<LcrqCasQueue>);
static_assert(ConcurrentQueue<LcrqHQueue>);
static_assert(ConcurrentQueue<LcrqCompactQueue>);
static_assert(ConcurrentQueue<MsQueue<true>>);
static_assert(ConcurrentQueue<MsQueue<false>>);
static_assert(ConcurrentQueue<TwoLockQueue>);
static_assert(ConcurrentQueue<TwoLockQueueBlind>);
static_assert(ConcurrentQueue<CcQueue>);
static_assert(ConcurrentQueue<HQueue>);
static_assert(ConcurrentQueue<FcQueue>);
static_assert(ConcurrentQueue<BoundedMpmcQueue>);
static_assert(ConcurrentQueue<MutexQueue>);
static_assert(ConcurrentQueue<InfiniteArrayQueue>);

// The facade's base contract is met natively by the list queues and the
// bounded rings, and by every registry queue through UniquePtrBase.
static_assert(FacadeBase<LcrqQueue>);
static_assert(FacadeBase<LcrqHQueue>);
static_assert(FacadeBase<LscqQueue>);
static_assert(FacadeBase<LwcqQueue>);
static_assert(FacadeBase<ScqQueue>);
static_assert(FacadeBase<WcqQueue>);
static_assert(FacadeBase<BoundedMpmcQueue>);
static_assert(FacadeBase<UniquePtrBase<AnyQueue>>);
static_assert(!FacadeBase<MsQueue<>>);

// Queues are pinned in memory: addresses escape into rings/lists/hazard
// slots, so accidental copies/moves must not compile.
static_assert(!std::is_copy_constructible_v<LcrqQueue>);
static_assert(!std::is_move_constructible_v<LcrqQueue>);
static_assert(!std::is_copy_constructible_v<MsQueue<>>);
static_assert(!std::is_copy_constructible_v<CcQueue>);
static_assert(!std::is_copy_constructible_v<BlockingQueue<>>);

TEST(QueueCommon, SentinelsAreAtTheTopOfTheValueSpace) {
    EXPECT_EQ(kBottom, ~value_t{0});
    EXPECT_EQ(kTop, ~value_t{0} - 1);
    EXPECT_EQ(kMaxValue + 1, kTop);
    EXPECT_TRUE(is_enqueueable(0));
    EXPECT_TRUE(is_enqueueable(kMaxValue));
    EXPECT_FALSE(is_enqueueable(kTop));
    EXPECT_FALSE(is_enqueueable(kBottom));
}

TEST(QueueCommon, PointersAreAlwaysEnqueueable) {
    // x86-64 canonical user pointers never collide with the sentinels.
    int local = 0;
    const auto p = reinterpret_cast<std::uintptr_t>(&local);
    EXPECT_TRUE(is_enqueueable(static_cast<value_t>(p)));
}

TEST(QueueCommon, DefaultOptionsAreUsableEverywhere) {
    const QueueOptions opt;
    EXPECT_GE(opt.ring_order, 1u);
    EXPECT_LT(opt.ring_order, 63u);
    EXPECT_GT(opt.starvation_limit, 0u);
    EXPECT_GT(kCombinerBound, 0u);
    EXPECT_GT(opt.cluster_timeout_ns, 0u);
}

TEST(Cacheline, CacheAlignedLayout) {
    static_assert(sizeof(CacheAligned<int>) == kCacheLineSize);
    static_assert(alignof(CacheAligned<int>) == kCacheLineSize);
    static_assert(sizeof(CacheAligned<std::uint64_t, kDestructivePairSize>) ==
                  kDestructivePairSize);
    CacheAligned<int> a{7};
    EXPECT_EQ(*a, 7);
    *a = 9;
    EXPECT_EQ(*a, 9);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a) % kCacheLineSize, 0u);
}

TEST(Cacheline, AlignedArrayAllocRespectsAlignment) {
    for (std::size_t align : {std::size_t{64}, std::size_t{128}}) {
        auto* p = aligned_array_alloc<std::uint64_t>(100, align);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
        p[0] = 1;
        p[99] = 2;
        aligned_array_free(p, align);
    }
}

TEST(Cacheline, CrqNodeSizes) {
    static_assert(sizeof(detail::CrqNode<true>) == kCacheLineSize);
    static_assert(sizeof(detail::CrqNode<false>) == 16);
    static_assert(alignof(detail::CrqCell) == 16);
    SUCCEED();
}

TEST(Cacheline, SpreadIsTheRingAndRecordRotation) {
    static_assert(spread(1, 6) == 8 && unspread(8, 6) == 1);
    // The formulas spread replaced, written out: ScqTicketCore's remap and
    // unremap at index width w, and wCQ's help-record position (w = 6).
    // Equal at every index, the ring and record layouts stay byte-identical.
    const auto remap = [](std::uint64_t j, unsigned w) -> std::uint64_t {
        const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
        return w <= 3 ? j : ((j << 3) | (j >> (w - 3))) & mask;
    };
    const auto unremap = [](std::uint64_t u, unsigned w) -> std::uint64_t {
        const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
        return w <= 3 ? u : ((u >> 3) | (u << (w - 3))) & mask;
    };
    for (unsigned w = 1; w <= 17; ++w) {
        for (std::uint64_t j = 0; j < (std::uint64_t{1} << w); ++j) {
            ASSERT_EQ(spread(j, w), remap(j, w)) << "width " << w << " index " << j;
            ASSERT_EQ(unspread(j, w), unremap(j, w)) << "width " << w << " index " << j;
            ASSERT_EQ(unspread(spread(j, w), w), j) << "width " << w << " index " << j;
            ASSERT_EQ(spread(unspread(j, w), w), j) << "width " << w << " index " << j;
        }
    }
    for (std::uint64_t s = 0; s < 64; ++s) {
        ASSERT_EQ(spread(s, 6), ((s << 3) | (s >> 3)) & 63) << "record " << s;
    }
}

}  // namespace
}  // namespace lcrq
