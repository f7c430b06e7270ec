// Model-based differential testing: random operation sequences applied,
// single-threaded, to every registered queue AND to a std::deque reference
// model must produce byte-identical results — sequential correctness with
// zero tolerance, across ring wraps, closes, segment switches, and
// empty/full edges.  Parameterized over (queue, seed, op-mix).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>
#include <vector>

#include "queues/crq.hpp"
#include "queues/scq.hpp"
#include "registry/queue_registry.hpp"
#include "util/xorshift.hpp"

namespace lcrq {
namespace {

struct Mix {
    const char* name;
    unsigned enqueue_percent;
};

constexpr Mix kMixes[] = {
    {"balanced", 50},
    {"growing", 80},
    {"draining", 25},
};

class ModelDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(ModelDifferential, MatchesDequeModel) {
    const auto& [queue_name, seed, mix_index] = GetParam();
    const Mix mix = kMixes[mix_index];

    QueueOptions opt;
    opt.ring_order = 2;  // R = 4: maximal wrap/close churn
    opt.bounded_order = 14;
    auto q = make_queue(queue_name, opt);
    ASSERT_NE(q, nullptr);

    std::deque<value_t> model;
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    value_t next_value = 1;

    for (int step = 0; step < 4'000; ++step) {
        if (rng.bounded(100) < mix.enqueue_percent) {
            // Bounded rings cannot grow indefinitely; skip enqueues that
            // would exceed a safe fill for the "growing" mix.
            if (model.size() >= 10'000) continue;
            const value_t v = next_value++;
            q->enqueue(v);
            model.push_back(v);
        } else {
            const auto got = q->dequeue();
            if (model.empty()) {
                ASSERT_FALSE(got.has_value())
                    << queue_name << " invented a value at step " << step;
            } else {
                ASSERT_TRUE(got.has_value())
                    << queue_name << " lost the front at step " << step;
                ASSERT_EQ(*got, model.front()) << queue_name << " step " << step;
                model.pop_front();
            }
        }
    }
    // Drain and compare the residue exactly.
    while (!model.empty()) {
        const auto got = q->dequeue();
        ASSERT_TRUE(got.has_value()) << queue_name << " lost residue";
        ASSERT_EQ(*got, model.front());
        model.pop_front();
    }
    ASSERT_FALSE(q->dequeue().has_value()) << queue_name << " has extra items";
}

// Same differential discipline for the batch interface: random mixes of
// single and bulk ops (bulk sizes crossing the R = 4 ring repeatedly) must
// match the deque model exactly — items in batch order, short dequeues
// only when the model agrees the queue ran dry.
class ModelDifferentialBulk
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ModelDifferentialBulk, MatchesDequeModel) {
    const auto& [queue_name, seed] = GetParam();

    QueueOptions opt;
    opt.ring_order = 2;
    opt.bounded_order = 14;
    auto q = make_queue(queue_name, opt);
    ASSERT_NE(q, nullptr);

    std::deque<value_t> model;
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull + 3);
    value_t next_value = 1;
    std::vector<value_t> buf;

    for (int step = 0; step < 2'000; ++step) {
        const unsigned roll = rng.bounded(100);
        const std::size_t k = 1 + rng.bounded(11);  // 1..11: straddles R=4
        if (roll < 50) {
            if (model.size() >= 10'000) continue;
            buf.clear();
            for (std::size_t i = 0; i < k; ++i) {
                buf.push_back(next_value++);
                model.push_back(buf.back());
            }
            q->enqueue_bulk(buf);
        } else if (roll < 75) {
            buf.assign(k, 0);
            const std::size_t got = q->dequeue_bulk(buf.data(), k);
            const std::size_t want = std::min(k, model.size());
            ASSERT_EQ(got, want) << queue_name << " step " << step;
            for (std::size_t i = 0; i < got; ++i) {
                ASSERT_EQ(buf[i], model.front()) << queue_name << " step " << step;
                model.pop_front();
            }
        } else if (roll < 88) {
            if (model.size() >= 10'000) continue;
            const value_t v = next_value++;
            q->enqueue(v);
            model.push_back(v);
        } else {
            const auto got = q->dequeue();
            if (model.empty()) {
                ASSERT_FALSE(got.has_value()) << queue_name << " step " << step;
            } else {
                ASSERT_TRUE(got.has_value()) << queue_name << " step " << step;
                ASSERT_EQ(*got, model.front());
                model.pop_front();
            }
        }
    }
    while (!model.empty()) {
        const auto got = q->dequeue();
        ASSERT_TRUE(got.has_value()) << queue_name << " lost residue";
        ASSERT_EQ(*got, model.front());
        model.pop_front();
    }
    ASSERT_FALSE(q->dequeue().has_value()) << queue_name << " has extra items";
}

// Three-way differential on the raw backends: the same op stream through a
// bare Scq (cycle/threshold protocol), a bare Crq (CAS2 protocol, sized and
// starvation-limited so it never closes), and the deque reference must agree
// byte-for-byte — the two ring disciplines are interchangeable FIFOs.
TEST(RawBackendDifferential, ScqAndCrqAgreeWithDeque) {
    Scq<> scq(10);  // capacity 1024
    QueueOptions crq_opt;
    crq_opt.ring_order = 11;  // 2048 nodes: never full at <= 1000 occupancy
    crq_opt.starvation_limit = 1'000'000;
    Crq<> crq(crq_opt);
    std::deque<value_t> model;

    Xoshiro256 rng(0x5cc1d1ffull);
    value_t next_value = 1;
    for (int step = 0; step < 6'000; ++step) {
        if (rng.bounded(100) < 55 && model.size() < 1'000) {
            const value_t v = next_value++;
            ASSERT_EQ(scq.try_enqueue(v), EnqueueResult::kOk) << "step " << step;
            ASSERT_EQ(crq.try_enqueue(v), EnqueueResult::kOk) << "step " << step;
            model.push_back(v);
        } else {
            const auto s = scq.dequeue();
            const auto c = crq.dequeue();
            if (model.empty()) {
                ASSERT_FALSE(s.has_value()) << "scq invented a value, step " << step;
                ASSERT_FALSE(c.has_value()) << "crq invented a value, step " << step;
            } else {
                ASSERT_TRUE(s.has_value()) << "scq lost the front, step " << step;
                ASSERT_TRUE(c.has_value()) << "crq lost the front, step " << step;
                ASSERT_EQ(*s, model.front()) << "step " << step;
                ASSERT_EQ(*c, model.front()) << "step " << step;
                model.pop_front();
            }
        }
    }
    while (!model.empty()) {
        const auto s = scq.dequeue();
        const auto c = crq.dequeue();
        ASSERT_TRUE(s.has_value() && c.has_value());
        ASSERT_EQ(*s, model.front());
        ASSERT_EQ(*c, model.front());
        model.pop_front();
    }
    ASSERT_FALSE(scq.dequeue().has_value());
    ASSERT_FALSE(crq.dequeue().has_value());
}

std::vector<std::string> all_names() {
    std::vector<std::string> names;
    for (const auto& info : queue_catalog()) names.push_back(info.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueues, ModelDifferentialBulk,
    ::testing::Combine(::testing::ValuesIn(all_names()), ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
        std::string n = std::get<0>(info.param);
        for (char& c : n) {
            if (c == '-' || c == '+') c = '_';
        }
        return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    AllQueues, ModelDifferential,
    ::testing::Combine(::testing::ValuesIn(all_names()), ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int, int>>& info) {
        std::string n = std::get<0>(info.param);
        for (char& c : n) {
            if (c == '-' || c == '+') c = '_';
        }
        return n + "_seed" + std::to_string(std::get<1>(info.param)) + "_" +
               kMixes[std::get<2>(info.param)].name;
    });

}  // namespace
}  // namespace lcrq
