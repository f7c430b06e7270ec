// Batched ticket claiming (enqueue_bulk / dequeue_bulk).
//
// The CRQ-level batch path claims a whole ticket range with one F&A and
// walks the claimed cells with the usual CAS2 transitions; LCRQ spills
// batches across CLOSED rings.  These tests pin down the amortization (one
// F&A per uncontended batch, visible through the software counters), the
// contract (short dequeue returns only on an empty observation; unused
// dequeue tickets are CAS-returned, never leaked), the close semantics
// (batch straddling a ring close loses nothing), and linearizability of
// mixed single/bulk histories.  TicketClaims pins per-op traces of every
// ring's single and batch claims (CRQ, SCQ, wCQ) to recorded digests.
//
// Uses cmpxchg16b via the CRQ family — keep off the TSan list (the loop-
// fallback coverage lives in test_bulk_fallback.cpp, which is eligible).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "queues/crq.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/scq.hpp"
#include "queues/wcq.hpp"
#include "queues/typed_queue.hpp"
#include "registry/queue_registry.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "util/xorshift.hpp"
#include "verify/history.hpp"
#include "verify/lin_check.hpp"

namespace lcrq {
namespace {

static_assert(BulkConcurrentQueue<LcrqQueue>);
static_assert(BulkConcurrentQueue<LcrqCasQueue>);
static_assert(BulkConcurrentQueue<ScqQueue>);
static_assert(BulkConcurrentQueue<LscqQueue>);
// The hierarchy policy wraps the same batch paths (enter() in front of
// every bulk claim), so the -h variants keep the full bulk interface.
static_assert(BulkConcurrentQueue<LcrqHQueue>);
static_assert(BulkConcurrentQueue<LscqHQueue>);
// The wCQ family has no native batch path (batched tickets would widen the
// helping records); it reaches the bulk interface through the loop
// fallback, via BulkAdapter below and the registry dispatch.
static_assert(ConcurrentQueue<WcqQueue> && !BulkConcurrentQueue<WcqQueue>);
static_assert(ConcurrentQueue<LwcqQueue> && !BulkConcurrentQueue<LwcqQueue>);
static_assert(BulkConcurrentQueue<BulkAdapter<LwcqQueue>>);

QueueOptions small_ring() {
    QueueOptions opt;
    opt.ring_order = 2;  // R = 4
    return opt;
}

// Options under which a raw CRQ cannot close: ring far larger than the
// worst-case in-flight item count and a starvation limit no test reaches.
QueueOptions no_close() {
    QueueOptions opt;
    opt.ring_order = 14;  // R = 16384
    opt.starvation_limit = 1'000'000;
    return opt;
}

std::vector<value_t> tags(unsigned producer, std::uint64_t n,
                          std::uint64_t start = 0) {
    std::vector<value_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(test::tag(producer, start + i));
    return v;
}

// --- CRQ-level amortization ---------------------------------------------

TEST(CrqBulk, OneFaaClaimsTheWholeBatch) {
    Crq<> q(no_close());
    const auto items = tags(0, 16);
    stats::reset_all();
    ASSERT_EQ(q.try_enqueue_bulk(items).done, 16u);
    auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkTickets], 16u);
    EXPECT_EQ(snap[stats::Event::kBulkWasted], 0u);
    EXPECT_EQ(snap[stats::Event::kFaa], 1u) << "uncontended batch must cost one F&A";

    value_t out[16];
    stats::reset_all();
    ASSERT_EQ(q.dequeue_bulk(out, 16), 16u);
    snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkTickets], 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], items[static_cast<std::size_t>(i)]);
}

TEST(CrqBulk, BatchLargerThanRingClaimsInRingSizedRounds) {
    Crq<> q(small_ring());  // R = 4
    value_t out[4];
    // Interleave so the ring never fills: 4 in, 4 out, repeatedly.
    for (unsigned round = 0; round < 8; ++round) {
        const auto items = tags(0, 4, round * 4);
        ASSERT_EQ(q.try_enqueue_bulk(items).done, 4u);
        ASSERT_EQ(q.dequeue_bulk(out, 4), 4u);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(out[i], items[static_cast<std::size_t>(i)]);
    }
}

TEST(CrqBulk, ClosedRingRefusesTheWholeBatch) {
    Crq<> q(no_close());
    q.close();
    const auto items = tags(0, 8);
    EXPECT_EQ(q.try_enqueue_bulk(items).done, 0u);
    EXPECT_TRUE(q.closed());
}

TEST(CrqBulk, EmptyDequeueReturnsUnspentTickets) {
    Crq<> q(no_close());
    value_t out[8];
    stats::reset_all();
    EXPECT_EQ(q.dequeue_bulk(out, 8), 0u);
    // The first ticket burned on the empty observation; the CAS-back from
    // claim-end returned the other 7 (nobody raced us), so head advanced by
    // exactly one and only one ticket was wasted.
    EXPECT_EQ(q.head_index(), 1u);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkWasted], 1u);
    // fix_state ran (EMPTY result): tail caught up with head, so the next
    // enqueue-dequeue round trip works at full capacity.
    EXPECT_EQ(q.tail_index(), q.head_index());

    const auto items = tags(0, 3);
    ASSERT_EQ(q.try_enqueue_bulk(items).done, 3u);
    ASSERT_EQ(q.dequeue_bulk(out, 8), 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], items[static_cast<std::size_t>(i)]);
}

TEST(CrqBulk, ShortDequeueImpliesEmptyObservation) {
    Crq<> q(no_close());
    const auto items = tags(0, 5);
    ASSERT_EQ(q.try_enqueue_bulk(items).done, 5u);
    value_t out[16];
    // Asking for more than is present must return exactly what is present
    // (the short return IS the empty observation) and nothing on a retry.
    ASSERT_EQ(q.dequeue_bulk(out, 16), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], items[static_cast<std::size_t>(i)]);
    // A batch that ends on EMPTY repairs tail even when it took items: the
    // ticket it burned observing EMPTY would otherwise leave head past tail.
    EXPECT_EQ(q.head_index(), q.tail_index());
    EXPECT_EQ(q.dequeue_bulk(out, 16), 0u);

    // So after a partial drain the next enqueue lands on its first ticket:
    // one F&A and no ring retry, not a second round past the burned hole.
    ASSERT_EQ(q.try_enqueue_bulk(tags(0, 2, 5)).done, 2u);
    ASSERT_EQ(q.dequeue_bulk(out, 4), 2u);
    EXPECT_EQ(q.head_index(), q.tail_index());
    stats::reset_all();
    ASSERT_EQ(q.try_enqueue(test::tag(0, 7)), EnqueueResult::kOk);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kFaa], 1u);
    EXPECT_EQ(snap[stats::Event::kRingRetry], 0u);
}

TEST(CrqBulk, FullRingClosesAndLosesNothing) {
    Crq<> q(small_ring());  // R = 4
    const auto items = tags(0, 10);
    // 4 fit; the next claim round finds every cell occupied, concludes the
    // ring is full, and closes it — the tantrum contract, batch-sized.
    const std::size_t accepted = q.try_enqueue_bulk(items).done;
    EXPECT_EQ(accepted, 4u);
    EXPECT_TRUE(q.closed());
    value_t out[16];
    const std::size_t got = q.dequeue_bulk(out, 16);
    ASSERT_EQ(got, accepted);
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], items[i]);
}

TEST(CrqBulk, StolenTicketLeavesHoleBatchSkips) {
    Crq<> q(no_close());
    // A "dead" enqueuer claims a ticket and never uses it: the batch behind
    // it still lands, and dequeuers poison past the hole.
    ASSERT_EQ(q.try_enqueue_bulk(tags(0, 2)).done, 2u);
    q.debug_take_enqueue_ticket();
    ASSERT_EQ(q.try_enqueue_bulk(tags(0, 3, 2)).done, 3u);
    value_t out[8];
    const std::size_t got = q.dequeue_bulk(out, 8);
    ASSERT_EQ(got, 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], test::tag(0, i));
}

// --- concurrent CRQ batches ---------------------------------------------

TEST(CrqBulk, ConcurrentBulkExchangeLosesNothing) {
    Crq<> q(no_close());
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPer = 4'000;
    constexpr std::size_t kBatch = 8;
    const std::uint64_t total = kProducers * kPer;
    std::atomic<std::uint64_t> consumed{0};
    std::vector<std::vector<value_t>> received(kConsumers);

    test::run_threads(kProducers + kConsumers, [&](int id) {
        if (id < kProducers) {
            const auto mine = tags(static_cast<unsigned>(id), kPer);
            std::size_t done = 0;
            while (done < mine.size()) {
                done += q.try_enqueue_bulk(
                             std::span<const value_t>(mine).subspan(done, kBatch))
                            .done;
            }
        } else {
            auto& mine = received[static_cast<std::size_t>(id - kProducers)];
            value_t out[kBatch];
            while (consumed.load(std::memory_order_acquire) < total) {
                const std::size_t got = q.dequeue_bulk(out, kBatch);
                if (got == 0) {
                    std::this_thread::yield();
                    continue;
                }
                mine.insert(mine.end(), out, out + got);
                consumed.fetch_add(got, std::memory_order_acq_rel);
            }
        }
    });
    test::expect_exchange_valid(received, kProducers, kPer);
}

// --- LCRQ batches across rings ------------------------------------------

TEST(LcrqBulk, BatchSpillsAcrossClosedRingsInOrder) {
    LcrqQueue q(small_ring());  // R = 4 forces many appends
    constexpr std::uint64_t kItems = 50;
    q.enqueue_bulk(tags(0, kItems));
    EXPECT_GT(q.segment_count(), 1u);

    value_t out[kItems];
    ASSERT_EQ(q.dequeue_bulk(out, kItems), kItems);
    for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(out[i], test::tag(0, i));
    EXPECT_EQ(q.dequeue_bulk(out, 4), 0u);
}

TEST(LcrqBulk, BulkDequeueDrainsAcrossSegments) {
    LcrqQueue q(small_ring());
    // Enqueue singly (spanning several rings), drain with one big bulk op.
    constexpr std::uint64_t kItems = 40;
    for (std::uint64_t i = 0; i < kItems; ++i) q.enqueue(test::tag(0, i));
    std::vector<value_t> out(kItems);
    ASSERT_EQ(q.dequeue_bulk(out.data(), kItems), kItems);
    for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(out[i], test::tag(0, i));
}

TEST(LcrqBulk, TryEnqueueBulkFailsWholeAfterClose) {
    LcrqQueue q;
    q.enqueue_bulk(tags(0, 4));
    q.close();
    EXPECT_FALSE(q.try_enqueue_bulk(tags(1, 4)));
    // Items enqueued before the close drain normally.
    value_t out[8];
    EXPECT_EQ(q.dequeue_bulk(out, 8), 4u);
    EXPECT_EQ(q.dequeue_bulk(out, 8), 0u);
}

TEST(LcrqBulk, MpmcBulkExchangeAllVariants) {
    // Tiny rings + batches of awkward sizes: batches straddle closes
    // constantly; nothing may be lost or duplicated.
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kPer = 3'000;
    auto run = [&](auto& q) {
        const std::uint64_t total = kProducers * kPer;
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(kConsumers);
        test::run_threads(kProducers + kConsumers, [&](int id) {
            // Virtual-cluster rig: real foreign-tag traffic for the -h
            // variants below, inert for the rest.
            topo::set_current_cluster(id % 2);
            if (id < kProducers) {
                const auto mine = tags(static_cast<unsigned>(id), kPer);
                std::size_t done = 0;
                while (done < mine.size()) {
                    const std::size_t k = std::min<std::size_t>(
                        7, mine.size() - done);
                    q.enqueue_bulk(std::span<const value_t>(mine).subspan(done, k));
                    done += k;
                }
            } else {
                auto& mine = received[static_cast<std::size_t>(id - kProducers)];
                value_t out[13];
                while (consumed.load(std::memory_order_acquire) < total) {
                    const std::size_t got = q.dequeue_bulk(out, 13);
                    if (got == 0) {
                        std::this_thread::yield();
                        continue;
                    }
                    mine.insert(mine.end(), out, out + got);
                    consumed.fetch_add(got, std::memory_order_acq_rel);
                }
            }
        });
        test::expect_exchange_valid(received, kProducers, kPer);
    };
    {
        LcrqQueue q(small_ring());
        run(q);
    }
    {
        LcrqCasQueue q(small_ring());
        run(q);
    }
    {
        LcrqNoReclaimQueue q(small_ring());
        run(q);
    }
    {
        // Hierarchy-wrapped, short claim timeout: batches straddle ring
        // closes AND cluster handoffs at the same time.
        QueueOptions opt = small_ring();
        opt.cluster_timeout_ns = 20'000;
        LcrqHQueue q(opt);
        run(q);
    }
    {
        QueueOptions opt = small_ring();
        opt.cluster_timeout_ns = 20'000;
        LscqHQueue q(opt);
        run(q);
    }
}

// --- LSCQ batches across segments ----------------------------------------

TEST(LscqBulk, BatchSpillsAcrossClosedSegmentsInOrder) {
    LscqQueue q(small_ring());  // capacity-4 segments force many appends
    constexpr std::uint64_t kItems = 50;
    q.enqueue_bulk(tags(0, kItems));
    EXPECT_GT(q.segment_count(), 1u);

    value_t out[kItems];
    ASSERT_EQ(q.dequeue_bulk(out, kItems), kItems);
    for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(out[i], test::tag(0, i));
    EXPECT_EQ(q.dequeue_bulk(out, 4), 0u);
}

TEST(LscqBulk, TryEnqueueBulkFailsWholeAfterClose) {
    LscqQueue q;
    q.enqueue_bulk(tags(0, 4));
    q.close();
    EXPECT_FALSE(q.try_enqueue_bulk(tags(1, 4)));
    value_t out[8];
    EXPECT_EQ(q.dequeue_bulk(out, 8), 4u);
    EXPECT_EQ(q.dequeue_bulk(out, 8), 0u);
}

TEST(LscqBulk, MpmcBulkExchangeAllVariantsAndBoundedScq) {
    // Same shape as the LCRQ variant sweep: capacity-4 segments, awkward
    // batch sizes, constant segment turnover.  The bounded ScqQueue joins
    // with a ring big enough that producers never deadlock on full.
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kPer = 3'000;
    auto run = [&](auto& q) {
        const std::uint64_t total = kProducers * kPer;
        std::atomic<std::uint64_t> consumed{0};
        std::vector<std::vector<value_t>> received(kConsumers);
        test::run_threads(kProducers + kConsumers, [&](int id) {
            // Virtual-cluster rig: real foreign-tag traffic for the -h
            // variants below, inert for the rest.
            topo::set_current_cluster(id % 2);
            if (id < kProducers) {
                const auto mine = tags(static_cast<unsigned>(id), kPer);
                std::size_t done = 0;
                while (done < mine.size()) {
                    const std::size_t k = std::min<std::size_t>(
                        7, mine.size() - done);
                    q.enqueue_bulk(std::span<const value_t>(mine).subspan(done, k));
                    done += k;
                }
            } else {
                auto& mine = received[static_cast<std::size_t>(id - kProducers)];
                value_t out[13];
                while (consumed.load(std::memory_order_acquire) < total) {
                    const std::size_t got = q.dequeue_bulk(out, 13);
                    if (got == 0) {
                        std::this_thread::yield();
                        continue;
                    }
                    mine.insert(mine.end(), out, out + got);
                    consumed.fetch_add(got, std::memory_order_acq_rel);
                }
            }
        });
        test::expect_exchange_valid(received, kProducers, kPer);
    };
    {
        LscqQueue q(small_ring());
        run(q);
    }
    {
        LinkedSegments<Scq<CasLoopFaa>> q(small_ring());
        run(q);
    }
    {
        LscqNoReclaimQueue q(small_ring());
        run(q);
    }
    {
        QueueOptions opt;
        opt.bounded_order = 8;  // capacity 256 >> producers' max in-flight
        ScqQueue q(opt);
        run(q);
    }
    {
        // The wait-free list through the fallback adapter: same batch
        // shapes, zero patience so batches also travel the helping path.
        QueueOptions opt = small_ring();
        opt.wcq_patience = 0;
        BulkAdapter<LwcqQueue> q(opt);
        run(q);
    }
}

// --- linearizability of mixed single/bulk histories ----------------------

TEST(BulkLinearizability, LcrqMixedSingleAndBulkHistoryPassesFastCheck) {
    QueueOptions opt;
    opt.ring_order = 2;
    LcrqQueue q(opt);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kRounds = 400;
    std::vector<verify::ThreadLog> logs;
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t, 16 * kRounds);

    test::run_threads(kThreads, [&](int id) {
        auto& log = logs[static_cast<std::size_t>(id)];
        const auto u = static_cast<unsigned>(id);
        value_t out[5];
        std::uint64_t seq = 0;
        for (std::uint64_t r = 0; r < kRounds; ++r) {
            const auto batch = tags(u, 3, seq);
            seq += 3;
            log.enqueue_bulk(q, batch);
            log.enqueue(q, test::tag(u, seq++));
            log.dequeue(q);
            log.dequeue_bulk(q, out, 5);
        }
    });

    const auto result = verify::check_queue_fast(verify::merge(logs));
    EXPECT_TRUE(result.ok) << result.error;
}

TEST(BulkLinearizability, CrqMixedSingleAndBulkHistoryPassesFastCheck) {
    Crq<> ring(no_close());
    test::RingAsQueue<Crq<>> q{ring};
    constexpr int kThreads = 4;
    constexpr std::uint64_t kRounds = 400;
    std::vector<verify::ThreadLog> logs;
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t, 16 * kRounds);

    test::run_threads(kThreads, [&](int id) {
        auto& log = logs[static_cast<std::size_t>(id)];
        const auto u = static_cast<unsigned>(id);
        value_t out[5];
        std::uint64_t seq = 0;
        for (std::uint64_t r = 0; r < kRounds; ++r) {
            const auto batch = tags(u, 3, seq);
            seq += 3;
            ASSERT_EQ(log.enqueue_bulk(q, batch), batch.size())
                << "no_close options must keep the ring open";
            log.enqueue(q, test::tag(u, seq++));
            log.dequeue(q);
            log.dequeue_bulk(q, out, 5);
        }
    });

    const auto result = verify::check_queue_fast(verify::merge(logs));
    EXPECT_TRUE(result.ok) << result.error;
}

TEST(BulkLinearizability, SmallMixedHistoriesPassExactCheck) {
    for (int round = 0; round < 25; ++round) {
        QueueOptions opt;
        opt.ring_order = 2;
        LcrqQueue q(opt);
        constexpr int kThreads = 3;
        std::vector<verify::ThreadLog> logs;
        for (int t = 0; t < kThreads; ++t) logs.emplace_back(t, 8);

        test::run_threads(kThreads, [&](int id) {
            auto& log = logs[static_cast<std::size_t>(id)];
            const auto u = static_cast<unsigned>(id);
            value_t out[2];
            log.dequeue_bulk(q, out, 2);
            log.enqueue_bulk(q, tags(u, 2));
            log.dequeue(q);
        });

        const auto result = verify::check_queue_exact(verify::merge(logs));
        ASSERT_TRUE(result.ok) << "round " << round << ": " << result.error;
    }
}

// --- typed facade and registry ------------------------------------------

TEST(TypedBulk, InlinePayloadRoundTrips) {
    Queue<int> q;
    std::vector<int> in;
    for (int i = 0; i < 300; ++i) in.push_back(i - 150);
    q.enqueue_bulk(in);  // > kBulkChunk: exercises the chunking loop
    std::vector<int> out(in.size());
    ASSERT_EQ(q.dequeue_bulk(out), in.size());
    EXPECT_EQ(out, in);
    ASSERT_EQ(q.dequeue_bulk(out), 0u);
}

TEST(TypedBulk, BoxedPayloadRoundTrips) {
    Queue<std::string> q;
    std::vector<std::string> in;
    for (int i = 0; i < 20; ++i) in.push_back("value-" + std::to_string(i));
    q.enqueue_bulk(in);
    std::vector<std::string> out(in.size());
    ASSERT_EQ(q.dequeue_bulk(out), in.size());
    EXPECT_EQ(out, in);
}

TEST(TypedBulk, PartialDequeueReportsShort) {
    Queue<int> q;
    const std::vector<int> in = {1, 2, 3};
    q.enqueue_bulk(in);
    std::vector<int> out(10);
    ASSERT_EQ(q.dequeue_bulk(out), 3u);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[2], 3);
}

TEST(RegistryBulk, EveryQueueRoundTripsBatches) {
    QueueOptions opt;
    opt.ring_order = 4;
    for (const auto& info : queue_catalog()) {
        auto q = make_queue(info.name, opt);
        ASSERT_NE(q, nullptr) << info.name;
        const auto items = tags(0, 37);
        q->enqueue_bulk(items);
        std::vector<value_t> out(items.size());
        std::size_t got = 0;
        while (got < items.size()) {
            const std::size_t n = q->dequeue_bulk(out.data() + got, items.size() - got);
            if (n == 0) break;
            got += n;
        }
        ASSERT_EQ(got, items.size()) << info.name;
        for (std::size_t i = 0; i < items.size(); ++i)
            EXPECT_EQ(out[i], items[i]) << info.name << " at " << i;
        std::vector<value_t> extra(4);
        EXPECT_EQ(q->dequeue_bulk(extra.data(), extra.size()), 0u) << info.name;
    }
}

TEST(RegistryBulk, AdapterCountsBulkAndPerItemOps) {
    auto q = make_queue("lcrq");
    ASSERT_NE(q, nullptr);
    const auto items = tags(0, 16);
    stats::reset_all();
    q->enqueue_bulk(items);
    std::vector<value_t> out(16);
    ASSERT_EQ(q->dequeue_bulk(out.data(), out.size()), 16u);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkEnqueue], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkDequeue], 1u);
    EXPECT_EQ(snap[stats::Event::kEnqueue], 16u);
    EXPECT_EQ(snap[stats::Event::kDequeue], 16u);
    // Native path: one claim F&A per side.
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 2u);
    EXPECT_EQ(snap[stats::Event::kBulkTickets], 32u);
}

TEST(RegistryBulk, LscqAdapterUsesNativeBulkClaims) {
    // SCQ segments pair two rings (fq for free slots, aq for the queue), so
    // the native batch path costs two bulk claims per side instead of one —
    // still O(1) F&As per batch, never one per item.
    auto q = make_queue("lscq");
    ASSERT_NE(q, nullptr);
    const auto items = tags(0, 16);
    stats::reset_all();
    q->enqueue_bulk(items);
    std::vector<value_t> out(16);
    ASSERT_EQ(q->dequeue_bulk(out.data(), out.size()), 16u);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkEnqueue], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkDequeue], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 4u);
    EXPECT_EQ(snap[stats::Event::kBulkTickets], 64u);
    EXPECT_EQ(snap[stats::Event::kCas2], 0u);
    for (std::size_t i = 0; i < items.size(); ++i) EXPECT_EQ(out[i], items[i]);
}

TEST(RegistryBulk, LwcqAdapterFallsBackToLoops) {
    // No native batch path on the wait-free backend: the registry adapter
    // must still serve the bulk interface (per-item loop), preserving FIFO
    // and the batch-level operation counters.
    auto q = make_queue("lwcq");
    ASSERT_NE(q, nullptr);
    const auto items = tags(0, 16);
    stats::reset_all();
    q->enqueue_bulk(items);
    std::vector<value_t> out(16);
    ASSERT_EQ(q->dequeue_bulk(out.data(), out.size()), 16u);
    const auto snap = stats::global_snapshot();
    EXPECT_EQ(snap[stats::Event::kBulkEnqueue], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkDequeue], 1u);
    EXPECT_EQ(snap[stats::Event::kBulkFaa], 0u) << "fallback claims no batches";
    EXPECT_EQ(snap[stats::Event::kCas2], 0u);
    for (std::size_t i = 0; i < items.size(); ++i) EXPECT_EQ(out[i], items[i]);
}

// --- pinned per-op traces of the ticket claims ---------------------------

// What one ring's scripts reached, summed over its seeds.
struct TraceTotals {
    stats::Snapshot events;
    std::uint64_t empties = 0;          // dequeues (single or batch) answering EMPTY
    std::uint64_t closed_enqueues = 0;  // enqueues refused, in part or whole
    std::uint64_t short_batches = 0;    // batch dequeues that took some items, not all
};

// One thread drives a ring through 20 seeded scripts of 4,000 ops at order
// 2: single and (where the ring has them) batch enqueues and dequeues,
// stolen enqueue tickets, and a close late in the script.  Enqueues draw
// from a pool of the values 0..n-1, so at most n items are ever out, the
// SCQ family's invariant; a CRQ that closes itself early is replaced once
// drained, as LCRQ would append a fresh ring.  After every op the digest
// folds in the answer, head, tail, the closed flag and the op's delta of
// every software counter.
template <class Ring, class Make>
std::uint64_t trace_digest(Make make, TraceTotals& totals) {
    constexpr bool kBatch = requires(Ring& r, std::uint64_t* out) {
        r.dequeue_bulk(out, std::size_t{1});
    };
    constexpr std::uint64_t kNewRing = ~std::uint64_t{0};
    constexpr int kOps = 4'000;
    std::uint64_t digest = 0;
    const auto fold = [&](std::uint64_t x) {
        std::uint64_t s = digest ^ x;
        digest = splitmix64(s);
    };
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::unique_ptr<Ring> ring = make();
        Xoshiro256 rng(seed);
        std::vector<std::uint64_t> pool;
        for (std::uint64_t v = 0; v < 4; ++v) pool.push_back(v);  // n = R = 4
        const auto draw = [&] {
            const std::size_t k = rng.bounded(pool.size());
            const std::uint64_t v = pool[k];
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
            return v;
        };
        const int close_at = kOps / 2 + static_cast<int>(rng.bounded(kOps / 2));
        for (int i = 0; i < kOps; ++i) {
            const std::uint64_t pick = rng.bounded(20);
            const bool batch = kBatch && rng.bounded(3) == 0;
            const std::size_t k = 1 + rng.bounded(6);
            const stats::Snapshot before = stats::global_snapshot();
            if (i == close_at) {
                ring->close();
            } else if (pick < 9 && !pool.empty()) {
                std::vector<std::uint64_t> in;
                while (in.size() < (batch ? k : 1) && !pool.empty()) in.push_back(draw());
                std::size_t done = 0;
                if constexpr (kBatch) {
                    if (batch) {
                        if constexpr (requires { ring->try_enqueue_bulk(in); }) {
                            const BulkPut put = ring->try_enqueue_bulk(in);
                            done = put.done;
                            fold(static_cast<std::uint64_t>(put.status));
                        } else {
                            done = ring->enqueue_bulk(in);
                        }
                    }
                }
                if (!batch) {
                    EnqueueResult r;
                    if constexpr (requires { ring->try_enqueue(in[0]); }) {
                        r = ring->try_enqueue(in[0]);
                    } else {
                        r = ring->enqueue(in[0]);
                    }
                    done = r == EnqueueResult::kOk ? 1 : 0;
                    fold(static_cast<std::uint64_t>(r));
                }
                fold(done);
                if (done < in.size()) ++totals.closed_enqueues;
                pool.insert(pool.end(), in.begin() + static_cast<std::ptrdiff_t>(done),
                            in.end());
            } else if (pick < 19) {
                std::uint64_t out[8];
                std::size_t got = 0;
                if constexpr (kBatch) {
                    if (batch) got = ring->dequeue_bulk(out, k);
                }
                if (!batch) {
                    const auto v = ring->dequeue();
                    if (v.has_value()) out[got++] = *v;
                }
                fold(got);
                for (std::size_t j = 0; j < got; ++j) fold(out[j]);
                pool.insert(pool.end(), out, out + got);
                if (got == 0) ++totals.empties;
                if (batch && got != 0 && got < k) ++totals.short_batches;
                if (got == 0 && ring->closed() && i < close_at) {
                    ring = make();  // a tantrum-closed CRQ, drained
                    fold(kNewRing);
                }
            } else {
                fold(ring->debug_take_enqueue_ticket());
            }
            const stats::Snapshot delta = stats::global_snapshot() - before;
            fold(ring->head_index());
            fold(ring->tail_index());
            fold(ring->closed() ? 1 : 0);
            for (const std::uint64_t c : delta.counts) fold(c);
            totals.events += delta;
        }
    }
    return digest;
}

// The claims of every ring, pinned op for op: a change to ticket claiming
// that means to keep behaviour keeps these digests.  To regenerate them
// after a change that means to alter behaviour, take the actual values
// from the failure messages, and name in the change which counter moved
// and why.  (The two CRQ layouts behave alike, so their digests agree.)
TEST(TicketClaims, PerOpTracesMatchTheirPinnedDigests) {
    using stats::Event;
    const auto check = [](const char* ring, std::uint64_t digest, std::uint64_t pinned,
                          const TraceTotals& t, bool batch) {
        EXPECT_EQ(digest, pinned) << ring;
        // The scripts reach the paths they pin.
        EXPECT_GT(t.empties, 0u) << ring;
        EXPECT_GT(t.closed_enqueues, 0u) << ring;
        EXPECT_GT(t.events[Event::kRingRetry], 0u) << ring;
        EXPECT_GT(t.events[Event::kEmptyTransition], 0u) << ring;
        EXPECT_GT(t.events[Event::kCas], 0u) << ring;
        if (batch) {
            EXPECT_GT(t.short_batches, 0u) << ring;
            EXPECT_GT(t.events[Event::kBulkWasted], 0u) << ring;
        }
    };
    const auto crq = [&]<class Ring>(const char* name, std::uint64_t pinned) {
        TraceTotals t;
        const std::uint64_t digest = trace_digest<Ring>(
            [] { return std::make_unique<Ring>(small_ring()); }, t);
        check(name, digest, pinned, t, true);
        EXPECT_GT(t.events[Event::kCrqClose], 20u) << name << ": no tantrum close";
        EXPECT_GT(t.events[Event::kSpinWait], 0u) << name;
    };
    crq.operator()<Crq<HardwareFaa>>("crq", 0xeffb89217a9e910dull);
    crq.operator()<Crq<CasLoopFaa>>("crq-cas", 0x8e8780a92ebf5c4bull);
    crq.operator()<Crq<HardwareFaa, false>>("crq-compact", 0xeffb89217a9e910dull);

    TraceTotals t;
    std::uint64_t digest =
        trace_digest<ScqRing<>>([] { return std::make_unique<ScqRing<>>(2); }, t);
    check("scq", digest, 0xe80f7b6a28a3dad3ull, t, true);
    t = {};
    digest = trace_digest<WcqRing<>>([] { return std::make_unique<WcqRing<>>(2); }, t);
    check("wcq", digest, 0xc9c7e642b1c45fcfull, t, false);
}

}  // namespace
}  // namespace lcrq
