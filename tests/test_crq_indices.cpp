// Index-arithmetic robustness: the CRQ's head/tail are 63-bit monotone
// counters with the closed flag in tail's MSB; these tests fast-forward a
// quiescent ring near large epochs and verify wraparound, comparisons,
// and the closed bit stay correct — the paper assumes indices < 2^63, and
// this pins the assumption down in code.
#include <gtest/gtest.h>

#include "queues/crq.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

QueueOptions ring(unsigned order) {
    QueueOptions opt;
    opt.ring_order = order;
    return opt;
}

class CrqHighIndex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrqHighIndex, FifoAcrossEpoch) {
    Crq<> q(ring(3));  // R = 8
    q.debug_jump_to_index(GetParam());
    for (value_t v = 1; v <= 6; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
    EXPECT_EQ(q.approx_size(), 6u);
    for (value_t v = 1; v <= 6; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_FALSE(q.closed());
}

TEST_P(CrqHighIndex, WrapsLapsAtEpoch) {
    Crq<> q(ring(2));  // R = 4
    q.debug_jump_to_index(GetParam());
    for (int lap = 0; lap < 50; ++lap) {
        for (value_t v = 1; v <= 3; ++v) ASSERT_EQ(q.try_enqueue(v), EnqueueResult::kOk);
        for (value_t v = 1; v <= 3; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
    }
}

TEST_P(CrqHighIndex, ClosedBitSurvivesEpoch) {
    Crq<> q(ring(2));
    q.debug_jump_to_index(GetParam());
    ASSERT_EQ(q.try_enqueue(1), EnqueueResult::kOk);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.try_enqueue(2), EnqueueResult::kClosed);
    EXPECT_EQ(q.dequeue().value_or(0), 1u);
    EXPECT_FALSE(q.dequeue().has_value());
    // tail_index strips the closed bit.
    EXPECT_LT(q.tail_index(), detail::kMsb);
}

TEST_P(CrqHighIndex, EmptyOvershootAtEpoch) {
    Crq<> q(ring(3));
    q.debug_jump_to_index(GetParam());
    for (int i = 0; i < 5; ++i) EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_LE(q.head_index(), q.tail_index());  // fixState repaired
    ASSERT_EQ(q.try_enqueue(42), EnqueueResult::kOk);
    EXPECT_EQ(q.dequeue().value_or(0), 42u);
}

TEST_P(CrqHighIndex, ConcurrentExchangeAtEpoch) {
    // Ring strictly larger than everything the producers can have in
    // flight, so the tantrum close cannot fire and the raw-CRQ exchange
    // (which treats enqueue as total) is safe.
    QueueOptions opt = ring(12);  // R = 4096 > 2 * 800
    opt.starvation_limit = 1'000'000;
    Crq<> q(opt);
    q.debug_jump_to_index(GetParam());
    test::RingAsQueue<Crq<>> rq{q};
    auto received = test::mpmc_exchange(rq, 2, 2, 800);
    ASSERT_FALSE(q.closed());
    test::expect_exchange_valid(received, 2, 800);
}

INSTANTIATE_TEST_SUITE_P(
    Epochs, CrqHighIndex,
    ::testing::Values(
        std::uint64_t{1} << 32,                  // past 32-bit wrap
        (std::uint64_t{1} << 62),                // huge but comfortably legal
        (std::uint64_t{1} << 63) - (1u << 20)),  // within 2^20 ops of the limit
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
        switch (info.index) {
            case 0: return std::string("past2e32");
            case 1: return std::string("at2e62");
            default: return std::string("near2e63");
        }
    });

}  // namespace
}  // namespace lcrq
