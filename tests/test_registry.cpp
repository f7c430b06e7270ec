// Queue registry: catalog completeness, factory behaviour, operation
// counting in the adapter, and the paper line-ups.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/counters.hpp"
#include "registry/queue_registry.hpp"
#include "topology/mem_policy.hpp"

namespace lcrq {
namespace {

TEST(Registry, CatalogHasUniqueNames) {
    std::set<std::string> names;
    for (const auto& info : queue_catalog()) {
        EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
        EXPECT_FALSE(info.description.empty()) << info.name;
    }
    EXPECT_GE(names.size(), 18u);
}

TEST(Registry, CatalogIncludesScqFamily) {
    // The SCQ backends are first-class registry citizens: present, correctly
    // classified, and distinct from the CRQ family.
    bool saw_scq = false, saw_lscq = false;
    for (const auto& info : queue_catalog()) {
        if (info.name == "scq") {
            saw_scq = true;
            EXPECT_TRUE(info.bounded) << "scq is a bounded ring";
            EXPECT_TRUE(info.nonblocking);
        } else if (info.name == "lscq") {
            saw_lscq = true;
            EXPECT_FALSE(info.bounded) << "lscq is an unbounded list of rings";
            EXPECT_TRUE(info.nonblocking);
        }
    }
    EXPECT_TRUE(saw_scq);
    EXPECT_TRUE(saw_lscq);
}

TEST(Registry, CatalogIncludesWcqFamily) {
    // The wait-free backend and its ablations round-trip through the
    // factory and carry the right classification bits.
    bool saw_wcq = false, saw_lwcq = false, saw_nopool = false;
    for (const auto& info : queue_catalog()) {
        if (info.name == "wcq") {
            saw_wcq = true;
            EXPECT_TRUE(info.bounded) << "wcq is a bounded ring";
            EXPECT_TRUE(info.nonblocking);
        } else if (info.name == "lwcq") {
            saw_lwcq = true;
            EXPECT_FALSE(info.bounded) << "lwcq is an unbounded list of rings";
            EXPECT_TRUE(info.nonblocking);
            EXPECT_FALSE(info.deferred_reclamation);
        } else if (info.name == "lwcq-nopool") {
            saw_nopool = true;
        }
    }
    EXPECT_TRUE(saw_wcq);
    EXPECT_TRUE(saw_lwcq);
    EXPECT_TRUE(saw_nopool);
}

TEST(Registry, LwcqRoundTripsWithWcqKnobs) {
    // The helping knobs flow through the factory: zero patience (all
    // contended operations slow) must not change FIFO behaviour.
    QueueOptions opt;
    opt.ring_order = 2;
    opt.wcq_patience = 0;
    for (const std::string name : {"lwcq", "lwcq-nopool", "wcq"}) {
        auto q = make_queue(name, opt);
        ASSERT_NE(q, nullptr) << name;
        EXPECT_EQ(q->name(), name);
        for (value_t v = 1; v <= 20; ++v) q->enqueue(v);
        for (value_t v = 1; v <= 20; ++v) {
            EXPECT_EQ(q->dequeue().value_or(0), v) << name;
        }
        EXPECT_FALSE(q->dequeue().has_value()) << name;
    }
}

TEST(Registry, EveryCatalogEntryConstructs) {
    QueueOptions opt;
    opt.ring_order = 4;
    opt.bounded_order = 6;
    for (const auto& info : queue_catalog()) {
        auto q = make_queue(info.name, opt);
        ASSERT_NE(q, nullptr) << info.name;
        EXPECT_EQ(q->name(), info.name);
    }
}

TEST(Registry, UnknownNameReturnsNull) {
    EXPECT_EQ(make_queue("no-such-queue"), nullptr);
    EXPECT_EQ(make_queue(""), nullptr);
}

TEST(Registry, RoundTripThroughEveryQueue) {
    QueueOptions opt;
    opt.ring_order = 4;
    opt.bounded_order = 6;
    for (const auto& info : queue_catalog()) {
        auto q = make_queue(info.name, opt);
        ASSERT_NE(q, nullptr);
        for (value_t v = 1; v <= 20; ++v) q->enqueue(v);
        for (value_t v = 1; v <= 20; ++v) {
            auto r = q->dequeue();
            ASSERT_TRUE(r.has_value()) << info.name;
            EXPECT_EQ(*r, v) << info.name;
        }
        EXPECT_FALSE(q->dequeue().has_value()) << info.name;
    }
}

TEST(Registry, AdapterCountsOperations) {
    stats::reset_all();
    auto q = make_queue("mutex");
    ASSERT_NE(q, nullptr);
    q->enqueue(1);
    q->enqueue(2);
    (void)q->dequeue();
    (void)q->dequeue();
    (void)q->dequeue();  // EMPTY
    const auto s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kEnqueue], 2u);
    EXPECT_EQ(s[stats::Event::kDequeue], 3u);
    EXPECT_EQ(s[stats::Event::kDequeueEmpty], 1u);
}

// Lock-prefixed RMWs per enqueue/dequeue pair on an empty queue, one
// thread, default options: the "atomic operations" rows of Tables 2/3 with
// nothing contended, so every count is exact and no CAS or CAS2 fails.
// The SCQ-family list rows pay one ring per pair: the dequeue keeps the
// slot it freed and the next enqueue publishes it without crossing the
// free ring (scq.hpp).  The bounded scq and wcq rows pay both rings.
struct RmwPerPair {
    unsigned faa = 0, swap = 0, tas = 0, fetch_or = 0, cas = 0, cas2 = 0;
};
const std::map<std::string, RmwPerPair> kRmwPerPair = {
    {"lcrq", {.faa = 2, .cas2 = 2}},
    {"lcrq-h", {.faa = 2, .cas2 = 2}},
    {"lcrq-compact", {.faa = 2, .cas2 = 2}},
    {"lcrq-noreclaim", {.faa = 2, .cas2 = 2}},
    {"lcrq-nopool", {.faa = 2, .cas2 = 2}},
    {"lcrq-ml", {.faa = 2, .cas2 = 2}},
    {"lcrq-cas", {.cas = 2, .cas2 = 2}},
    {"lscq", {.faa = 2, .fetch_or = 1, .cas = 1}},
    {"lscq-h", {.faa = 2, .fetch_or = 1, .cas = 1}},
    {"lscq-nopool", {.faa = 2, .fetch_or = 1, .cas = 1}},
    {"lscq-ml", {.faa = 2, .fetch_or = 1, .cas = 1}},
    {"scq", {.faa = 4, .fetch_or = 2, .cas = 2}},
    {"lwcq", {.faa = 2, .cas = 2}},
    {"lwcq-nopool", {.faa = 2, .cas = 2}},
    {"wcq", {.faa = 4, .cas = 4}},
    {"ms", {.cas = 3}},
    {"ms-nobackoff", {.cas = 3}},
    {"bounded-mpmc", {.cas = 2}},
    {"two-lock", {.tas = 2}},
    {"two-lock-blind", {.tas = 2}},
    {"fc-queue", {.tas = 2}},
    {"cc-queue", {.swap = 2}},
    {"h-queue", {.swap = 2, .tas = 2}},
    {"infinite-array", {.faa = 2, .swap = 2}},
    {"mutex", {}},
};

TEST(Registry, EveryRowPaysExactlyItsAtomicsPerPair) {
    constexpr std::uint64_t kWarmup = 8;  // lanes, cluster tag, first touches
    constexpr std::uint64_t kPairs = 1000;
    for (const auto& info : queue_catalog()) {
        SCOPED_TRACE(info.name);
        const auto row = kRmwPerPair.find(info.name);
        ASSERT_NE(row, kRmwPerPair.end()) << "catalog row without an expected count";
        auto q = make_queue(info.name);
        ASSERT_NE(q, nullptr);
        for (value_t v = 1; v <= kWarmup; ++v) {
            q->enqueue(v);
            ASSERT_EQ(q->dequeue().value_or(0), v);
        }
        const auto before = stats::global_snapshot();
        for (value_t v = 1; v <= kPairs; ++v) {
            q->enqueue(v);
            ASSERT_EQ(q->dequeue().value_or(0), v);
        }
        const auto d = stats::global_snapshot() - before;
        const RmwPerPair& want = row->second;
        EXPECT_EQ(d[stats::Event::kFaa], want.faa * kPairs);
        EXPECT_EQ(d[stats::Event::kSwap], want.swap * kPairs);
        EXPECT_EQ(d[stats::Event::kTas], want.tas * kPairs);
        EXPECT_EQ(d[stats::Event::kFetchOr], want.fetch_or * kPairs);
        EXPECT_EQ(d[stats::Event::kCas], want.cas * kPairs);
        EXPECT_EQ(d[stats::Event::kCas2], want.cas2 * kPairs);
        EXPECT_EQ(d[stats::Event::kCasFailure], 0u);
        EXPECT_EQ(d[stats::Event::kCas2Failure], 0u);
        // Each operation is counted once, by the adapter, whatever the
        // queue does inside it.
        EXPECT_EQ(d[stats::Event::kEnqueue], kPairs);
        EXPECT_EQ(d[stats::Event::kDequeue], kPairs);
        EXPECT_EQ(d[stats::Event::kDequeueEmpty], 0u);
    }
    EXPECT_EQ(kRmwPerPair.size(), queue_catalog().size()) << "a table row names no queue";
}

TEST(Registry, ListQueuesForwardTheirPeekAndOthersAnswerDontKnow) {
    // The list queues peek without writing; the adapter forwards it and
    // counts nothing for it.  Queues without a peek answer false ("don't
    // know, poll for real"), which keeps a waiter making real dequeues.
    for (const char* name : {"lcrq", "lscq", "lwcq"}) {
        SCOPED_TRACE(name);
        auto q = make_queue(name);
        ASSERT_NE(q, nullptr);
        stats::reset_all();
        EXPECT_TRUE(q->looks_empty());
        q->enqueue(1);
        EXPECT_FALSE(q->looks_empty());
        EXPECT_EQ(q->dequeue().value_or(0), 1u);
        EXPECT_TRUE(q->looks_empty());
        const auto s = stats::global_snapshot();
        EXPECT_EQ(s[stats::Event::kDequeue], 1u) << "a peek counted as a dequeue";
        EXPECT_EQ(s[stats::Event::kDequeueEmpty], 0u);
    }
    auto ms = make_queue("ms");
    ASSERT_NE(ms, nullptr);
    EXPECT_FALSE(ms->looks_empty());
}

TEST(Registry, PaperSetsResolve) {
    for (const auto& name : paper_single_processor_set()) {
        EXPECT_NE(make_queue(name), nullptr) << name;
    }
    for (const auto& name : paper_multi_processor_set()) {
        QueueOptions opt;
        opt.clusters = 2;
        EXPECT_NE(make_queue(name, opt), nullptr) << name;
    }
}

TEST(Registry, MultilaneEntriesAreCatalogued) {
    bool saw_lcrq_ml = false, saw_lscq_ml = false;
    for (const auto& info : queue_catalog()) {
        if (info.name == "lcrq-ml") saw_lcrq_ml = true;
        if (info.name == "lscq-ml") saw_lscq_ml = true;
        EXPECT_EQ(info.per_lane_fifo,
                  info.name == "lcrq-ml" || info.name == "lscq-ml")
            << info.name << ": per_lane_fifo must mark exactly the multilane "
                            "front-ends";
    }
    EXPECT_TRUE(saw_lcrq_ml);
    EXPECT_TRUE(saw_lscq_ml);
}

TEST(Registry, MlKnobResolvesAndReportsItsSpelling) {
    QueueOptions opt;
    opt.ring_order = 4;
    for (const std::string name : {"lcrq-ml8", "lscq-ml2", "lcrq-ml64"}) {
        auto q = make_queue(name, opt);
        ASSERT_NE(q, nullptr) << name;
        EXPECT_EQ(q->name(), name);
        for (value_t v = 1; v <= 10; ++v) q->enqueue(v);
        for (value_t v = 1; v <= 10; ++v) {
            EXPECT_EQ(q->dequeue().value_or(0), v) << name;
        }
        EXPECT_FALSE(q->dequeue().has_value()) << name;
    }
}

TEST(Registry, MalformedMlKnobsAreRejected) {
    // Only a genuine "-ml<positive number ≤ kMaxLanes>" suffix on a
    // registered base resolves; everything else must stay an unknown name.
    for (const std::string name :
         {"lcrq-ml0", "lcrq-mlx", "lcrq-ml8x", "lcrq-ml999", "ms-ml4",
          "-ml4", "lcrq-ml-ml4"}) {
        EXPECT_EQ(make_queue(name), nullptr) << name;
    }
}

TEST(Registry, FindQueueInfoResolvesExactAndKnobSpellings) {
    const QueueInfo* exact = find_queue_info("lcrq-ml");
    ASSERT_NE(exact, nullptr);
    EXPECT_TRUE(exact->per_lane_fifo);

    const QueueInfo* knob = find_queue_info("lscq-ml16");
    ASSERT_NE(knob, nullptr);
    EXPECT_EQ(knob->name, "lscq-ml");
    EXPECT_TRUE(knob->per_lane_fifo);

    EXPECT_EQ(find_queue_info("lcrq-ml0"), nullptr);
    EXPECT_EQ(find_queue_info("no-such-queue"), nullptr);

    const QueueInfo* base = find_queue_info("lcrq");
    ASSERT_NE(base, nullptr);
    EXPECT_FALSE(base->per_lane_fifo);
}

TEST(Registry, PaperSetsComeFromCatalogTags) {
    // The line-ups are derived from paper_sets tags, not hardcoded lists:
    // membership must match the tag bits exactly, for every entry.
    const auto single = paper_single_processor_set();
    const auto multi = paper_multi_processor_set();
    const auto contains = [](const std::vector<std::string>& v,
                             const std::string& n) {
        return std::find(v.begin(), v.end(), n) != v.end();
    };
    for (const auto& info : queue_catalog()) {
        EXPECT_EQ(contains(single, info.name),
                  (info.paper_sets & kSetSingleProcessor) != 0)
            << info.name;
        EXPECT_EQ(contains(multi, info.name),
                  (info.paper_sets & kSetMultiProcessor) != 0)
            << info.name;
    }
    // The multilane front-ends extend the oversubscription line-up.
    EXPECT_TRUE(contains(multi, "lcrq-ml"));
    EXPECT_TRUE(contains(multi, "lscq-ml"));
    EXPECT_FALSE(contains(single, "lcrq-ml"));
}

TEST(Registry, HierarchyVariantsAreCatalogued) {
    // lcrq-h / lscq-h are first-class entries: present, unbounded,
    // nonblocking, and in the multi-processor line-up (the policy only
    // means something across clusters).
    for (const std::string name : {"lcrq-h", "lscq-h"}) {
        const QueueInfo* info = find_queue_info(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_FALSE(info->bounded) << name;
        EXPECT_TRUE(info->nonblocking) << name;
        EXPECT_NE(info->paper_sets & kSetMultiProcessor, 0u) << name;
    }
}

TEST(Registry, HKnobResolvesAndReportsItsSpelling) {
    // "-h<timeout_us>" picks the hierarchical variant with that claim
    // timeout.  -h0 is VALID (claim a foreign segment immediately — the
    // no-batching ablation), unlike -ml0 where zero lanes is nonsense.
    for (const std::string name : {"lcrq-h200", "lscq-h50", "lcrq-h0", "lscq-h0"}) {
        auto q = make_queue(name);
        ASSERT_NE(q, nullptr) << name;
        EXPECT_EQ(q->name(), name);
        for (value_t v = 1; v <= 10; ++v) q->enqueue(v);
        for (value_t v = 1; v <= 10; ++v) {
            EXPECT_EQ(q->dequeue().value_or(0), v) << name;
        }
        EXPECT_FALSE(q->dequeue().has_value()) << name;
    }
    const QueueInfo* knob = find_queue_info("lscq-h200");
    ASSERT_NE(knob, nullptr);
    EXPECT_EQ(knob->name, "lscq-h");
}

TEST(Registry, MalformedHKnobsAreRejected) {
    // Digits only, bounded magnitude, on a registered hierarchical base.
    for (const std::string name :
         {"lcrq-hx", "lcrq-h2x", "lcrq-h99999999999", "ms-h4", "-h4",
          "lscq-h-h2"}) {
        EXPECT_EQ(make_queue(name), nullptr) << name;
        EXPECT_EQ(find_queue_info(name), nullptr) << name;
    }
}

TEST(Registry, HugeKnobResolvesAndComposes) {
    // "-huge" is a boolean suffix knob (QueueOptions::huge_segments): it
    // resolves to the base entry, reports the requested spelling, and
    // composes as a final suffix with the digit knobs.
    for (const std::string name :
         {"lcrq-huge", "lscq-huge", "lcrq-ml2-huge", "lscq-h100-huge"}) {
        auto q = make_queue(name);
        ASSERT_NE(q, nullptr) << name;
        EXPECT_EQ(q->name(), name);
        for (value_t v = 1; v <= 10; ++v) q->enqueue(v);
        for (value_t v = 1; v <= 10; ++v) {
            EXPECT_EQ(q->dequeue().value_or(0), v) << name;
        }
        EXPECT_FALSE(q->dequeue().has_value()) << name;
    }
    const QueueInfo* info = find_queue_info("lcrq-huge");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->name, "lcrq");

    // Every segment-backed queue honours the knob at the hugepage floor:
    // its segment slabs count as hugepage-backed whenever THP is there,
    // and never under the LCRQ_FORCE_NO_THP fallback.
    QueueOptions big;
    big.ring_order = kHugeMinRingOrder;
    big.bounded_order = kHugeMinRingOrder;
    for (const std::string name :
         {"lcrq-huge", "lscq-huge", "lwcq-huge", "scq-huge", "wcq-huge"}) {
        const auto before = stats::global_snapshot();
        auto q = make_queue(name, big);
        ASSERT_NE(q, nullptr) << name;
        const auto huge = (stats::global_snapshot() - before)[stats::Event::kSegmentHuge];
        if (mem::thp_available()) {
            EXPECT_GT(huge, 0u) << name;
        } else {
            EXPECT_EQ(huge, 0u) << name;
        }
        q->enqueue(5);
        EXPECT_EQ(q->dequeue().value_or(0), 5u) << name;
    }
    const QueueInfo* composed = find_queue_info("lscq-ml4-huge");
    ASSERT_NE(composed, nullptr);
    EXPECT_EQ(composed->name, "lscq-ml");

    // The suffix must be final and complete.
    for (const std::string name :
         {"lcrq-huge2", "lcrq-hugex", "-huge", "no-such-huge"}) {
        EXPECT_EQ(make_queue(name), nullptr) << name;
        EXPECT_EQ(find_queue_info(name), nullptr) << name;
    }
}

TEST(Registry, LcrqVariantsAreDistinctObjects) {
    auto a = make_queue("lcrq");
    auto b = make_queue("lcrq-cas");
    auto c = make_queue("lcrq-h");
    ASSERT_TRUE(a && b && c);
    a->enqueue(1);
    EXPECT_FALSE(b->dequeue().has_value());
    EXPECT_FALSE(c->dequeue().has_value());
    EXPECT_EQ(a->dequeue().value_or(0), 1u);
}

}  // namespace
}  // namespace lcrq
