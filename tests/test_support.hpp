// Shared helpers for the gtest suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/inject.hpp"
#include "queues/queue_common.hpp"
#include "util/xorshift.hpp"

namespace lcrq::test {

// Tagged values: (producer id, sequence) packed so every enqueued value in
// a test is distinct and the producer order is recoverable.
constexpr value_t tag(unsigned producer, std::uint64_t seq) noexcept {
    return (static_cast<value_t>(producer) << 40) | (seq + 1);
}
constexpr unsigned tag_producer(value_t v) noexcept {
    return static_cast<unsigned>(v >> 40);
}
constexpr std::uint64_t tag_seq(value_t v) noexcept {
    return (v & ((value_t{1} << 40) - 1)) - 1;
}

// Run `threads` copies of `body(thread_index)` with a start barrier so
// they contend for real, and join them all.
inline void run_threads(int threads, const std::function<void(int)>& body) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
        ts.emplace_back([&, i] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            body(i);
        });
    }
    while (ready.load() < threads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& t : ts) t.join();
}

// A bare ring (Crq) in the shape the queue harnesses drive (mpmc_exchange,
// verify::ThreadLog): enqueue forwards to try_enqueue and enqueue_bulk
// reports how many items landed.  Only for rings configured never to close.
template <typename Ring>
struct RingAsQueue {
    Ring& ring;

    EnqueueResult enqueue(value_t v) { return ring.try_enqueue(v); }
    std::size_t enqueue_bulk(std::span<const value_t> items) {
        return ring.try_enqueue_bulk(items).done;
    }
    std::optional<value_t> dequeue() { return ring.dequeue(); }
    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        return ring.dequeue_bulk(out, max);
    }
};

// An MPMC exchange: `producers` threads enqueue `per_producer` tagged
// values each; `consumers` threads dequeue until everything was received.
// Returns the consumed values grouped by consumer, in consumption order.
template <typename Q>
std::vector<std::vector<value_t>> mpmc_exchange(Q& q, int producers, int consumers,
                                                std::uint64_t per_producer) {
    const std::uint64_t total = static_cast<std::uint64_t>(producers) * per_producer;
    std::atomic<std::uint64_t> consumed{0};
    std::vector<std::vector<value_t>> received(static_cast<std::size_t>(consumers));

    run_threads(producers + consumers, [&](int id) {
        if (id < producers) {
            for (std::uint64_t i = 0; i < per_producer; ++i) {
                q.enqueue(tag(static_cast<unsigned>(id), i));
            }
        } else {
            auto& mine = received[static_cast<std::size_t>(id - producers)];
            while (consumed.load(std::memory_order_acquire) < total) {
                if (auto v = q.dequeue()) {
                    mine.push_back(*v);
                    consumed.fetch_add(1, std::memory_order_acq_rel);
                } else {
                    std::this_thread::yield();
                }
            }
        }
    });
    return received;
}

// Assertions over an mpmc_exchange result: every tagged value arrives
// exactly once, and each producer's values are consumed in FIFO order *per
// consumer* (a consequence of queue linearizability).
inline void expect_exchange_valid(const std::vector<std::vector<value_t>>& received,
                                  int producers, std::uint64_t per_producer) {
    std::vector<std::vector<std::uint64_t>> seen(
        static_cast<std::size_t>(producers),
        std::vector<std::uint64_t>());
    for (const auto& consumer : received) {
        std::vector<std::uint64_t> last(static_cast<std::size_t>(producers), 0);
        std::vector<bool> any(static_cast<std::size_t>(producers), false);
        for (value_t v : consumer) {
            const unsigned p = tag_producer(v);
            const std::uint64_t s = tag_seq(v);
            ASSERT_LT(p, static_cast<unsigned>(producers)) << "alien value " << v;
            ASSERT_LT(s, per_producer);
            if (any[p]) {
                EXPECT_GT(s, last[p])
                    << "per-producer FIFO violated at producer " << p;
            }
            any[p] = true;
            last[p] = s;
            seen[p].push_back(s);
        }
    }
    std::uint64_t total = 0;
    for (int p = 0; p < producers; ++p) {
        auto& s = seen[static_cast<std::size_t>(p)];
        total += s.size();
        std::sort(s.begin(), s.end());
        for (std::uint64_t i = 0; i < s.size(); ++i) {
            ASSERT_EQ(s[i], i) << "lost or duplicated value from producer " << p;
        }
        EXPECT_EQ(s.size(), per_producer) << "producer " << p;
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(producers) * per_producer);
}

// Weaker variant for tantrum queues (raw CRQ): values may be missing (the
// producer gave up after CLOSED) but per-producer order must still hold
// per consumer and nothing may duplicate across consumers.
inline void expect_exchange_valid_partial(
    const std::vector<std::vector<value_t>>& received, int producers) {
    std::vector<std::vector<std::uint64_t>> seen(static_cast<std::size_t>(producers));
    for (const auto& consumer : received) {
        std::vector<std::uint64_t> last(static_cast<std::size_t>(producers), 0);
        std::vector<bool> any(static_cast<std::size_t>(producers), false);
        for (value_t v : consumer) {
            const unsigned p = tag_producer(v);
            ASSERT_LT(p, static_cast<unsigned>(producers)) << "alien value " << v;
            const std::uint64_t s = tag_seq(v);
            if (any[p]) {
                EXPECT_GT(s, last[p]) << "per-producer FIFO violated at producer " << p;
            }
            any[p] = true;
            last[p] = s;
            seen[p].push_back(s);
        }
    }
    for (auto& s : seen) {
        std::sort(s.begin(), s.end());
        EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end())
            << "value dequeued twice";
    }
}

// --- schedule-injection replay flags ---------------------------------------
//
// The injection suites (built with -DLCRQ_INJECT=ON) sweep random seeds;
// when a seed fails, the test prints a replay line and the binary accepts
//   --inject-seed=N    re-run exactly that seed (sweep shrinks to it)
//   --inject-point=P   focus random delays on one named point
//   --inject-sweep=N   seeds per sweep test (nightly runs crank this up)
// with LCRQ_INJECT_SEED / LCRQ_INJECT_POINT / LCRQ_INJECT_SWEEP environment
// fallbacks so ctest-driven CI runs can set them fleet-wide.  Parsed by
// injection_main.cpp after gtest consumes its own flags.

struct InjectOptions {
    std::optional<std::uint64_t> seed;
    std::optional<inject::Point> point;
    std::optional<std::uint64_t> sweep;
};

inline InjectOptions& inject_options() {
    static InjectOptions opts;
    return opts;
}

inline std::optional<inject::Point> inject_point_from_name(std::string_view name) {
    for (std::size_t i = 0; i < inject::kPointCount; ++i) {
        const auto p = static_cast<inject::Point>(i);
        if (inject::point_name(p) == name) return p;
    }
    return std::nullopt;
}

inline void parse_inject_flags(int argc, char** argv) {
    auto& opts = inject_options();
    const auto parse_u64 = [](std::string_view v) {
        return static_cast<std::uint64_t>(std::strtoull(std::string(v).c_str(), nullptr, 0));
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        constexpr std::string_view kSeed = "--inject-seed=";
        constexpr std::string_view kPoint = "--inject-point=";
        constexpr std::string_view kSweep = "--inject-sweep=";
        if (arg.substr(0, kSeed.size()) == kSeed) {
            opts.seed = parse_u64(arg.substr(kSeed.size()));
        } else if (arg.substr(0, kPoint.size()) == kPoint) {
            const std::string_view name = arg.substr(kPoint.size());
            opts.point = inject_point_from_name(name);
            if (!opts.point.has_value()) {
                // A typo'd focus must not silently replay unfocused.
                std::fprintf(stderr, "unknown --inject-point '%.*s'; valid names:\n",
                             static_cast<int>(name.size()), name.data());
                for (std::size_t p = 0; p < inject::kPointCount; ++p) {
                    const auto n = point_name(static_cast<inject::Point>(p));
                    std::fprintf(stderr, "  %.*s\n", static_cast<int>(n.size()), n.data());
                }
                std::exit(2);
            }
        } else if (arg.substr(0, kSweep.size()) == kSweep) {
            opts.sweep = parse_u64(arg.substr(kSweep.size()));
        }
    }
    // Environment fallbacks lose to explicit flags.
    if (!opts.seed.has_value()) {
        if (const char* s = std::getenv("LCRQ_INJECT_SEED")) opts.seed = parse_u64(s);
    }
    if (!opts.point.has_value()) {
        if (const char* s = std::getenv("LCRQ_INJECT_POINT")) {
            opts.point = inject_point_from_name(s);
            if (!opts.point.has_value()) {
                std::fprintf(stderr, "unknown LCRQ_INJECT_POINT '%s'\n", s);
                std::exit(2);
            }
        }
    }
    if (!opts.sweep.has_value()) {
        if (const char* s = std::getenv("LCRQ_INJECT_SWEEP")) opts.sweep = parse_u64(s);
    }
}

// The seeds a sweep test runs: the --inject-seed override alone when given,
// otherwise `dflt` (or --inject-sweep=N) seeds derived from `base`.
inline std::vector<std::uint64_t> inject_seeds(std::uint64_t base, std::uint64_t dflt) {
    const auto& opts = inject_options();
    if (opts.seed.has_value()) return {*opts.seed};
    std::vector<std::uint64_t> seeds;
    std::uint64_t state = base;
    for (std::uint64_t i = 0; i < opts.sweep.value_or(dflt); ++i) {
        seeds.push_back(splitmix64(state));
    }
    return seeds;
}

}  // namespace lcrq::test
