// google-benchmark microbenchmarks of the §3 primitive layer: per-
// operation cost of each atomic primitive, uncontended and contended
// (benchmark threads hammer one shared word — Figure 1 in micro form) —
// plus the futex park->wake round trip the blocking facade's spin window
// is set from.
#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/primitives.hpp"
#include "queues/blocking_queue.hpp"
#include "topology/pinning.hpp"
#include "topology/topology.hpp"

namespace {

using namespace lcrq;

alignas(kDestructivePairSize) std::atomic<std::uint64_t> g_word{0};
alignas(16) U128 g_pair{0, 0};

void BM_FetchAndAdd(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(fetch_and_add(g_word, std::uint64_t{1}));
    }
}
BENCHMARK(BM_FetchAndAdd)->ThreadRange(1, 8)->UseRealTime();

void BM_CasLoopIncrement(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(CasLoopFaa::fetch_add(g_word, 1));
    }
}
BENCHMARK(BM_CasLoopIncrement)->ThreadRange(1, 8)->UseRealTime();

void BM_Swap(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(swap(g_word, std::uint64_t{42}));
    }
}
BENCHMARK(BM_Swap)->ThreadRange(1, 8)->UseRealTime();

void BM_UncontendedCas(benchmark::State& state) {
    // Single thread: every CAS succeeds — the baseline cost of the
    // instruction itself.
    std::atomic<std::uint64_t> local{0};
    std::uint64_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cas(local, v, v + 1));
        ++v;
    }
}
BENCHMARK(BM_UncontendedCas);

void BM_Cas2(benchmark::State& state) {
    if (state.thread_index() == 0) g_pair = {0, 0};
    for (auto _ : state) {
        U128 expected = load2(&g_pair);
        cas2(&g_pair, expected, {expected.lo + 1, expected.hi + 1});
    }
}
BENCHMARK(BM_Cas2)->ThreadRange(1, 4)->UseRealTime();

void BM_TestAndSetBit(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(test_and_set_bit(g_word, 7));
    }
}
BENCHMARK(BM_TestAndSetBit);

void BM_UncontendedLoad(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(g_word.load(std::memory_order_seq_cst));
    }
}
BENCHMARK(BM_UncontendedLoad);

// A sequence number a thread parks on through the blocking facade's
// eventcount, with the facade's waiter protocol.
struct Baton {
    detail::EventCount ec;
    std::atomic<std::uint64_t> seq{0};

    void pass() {
        seq.fetch_add(1, std::memory_order_release);
        ec.signal();
    }
    void await(std::uint64_t want) {
        while (seq.load(std::memory_order_acquire) < want) {
            detail::WaiterGuard guard(ec, detail::Waiter::kThread);
            const std::uint32_t observed = ec.prepare();
            if (seq.load(std::memory_order_acquire) >= want) break;
            ec.wait_slice(observed, 10'000'000);
        }
    }
};

// One iteration wakes a parked partner and parks until the partner wakes
// it back: two futex park->wake hops, the cost a waiter that parks instead
// of spinning pays before it runs again.  The two threads are pinned to
// different CPUs (when there are two), as a producer and its consumers
// are, so each hop includes waking an idle CPU.  p50/p90 counters, in us.
// BlockingQueue::kSpinWindowNs is set from this number.
void BM_FutexParkWakeRoundTrip(benchmark::State& state) {
    const std::vector<topo::ThreadSlot> slots =
        topo::plan_placement(topo::discover(), 2, topo::Placement::kSingleCluster);
    cpu_set_t saved{};
    const bool restore = sched_getaffinity(0, sizeof(saved), &saved) == 0;
    topo::pin_self(slots[0]);
    Baton ping, pong;
    std::atomic<bool> stop{false};
    std::thread partner([&] {
        topo::pin_self(slots[1]);
        for (std::uint64_t i = 1;; ++i) {
            ping.await(i);
            if (stop.load(std::memory_order_acquire)) return;
            pong.pass();
        }
    });
    std::vector<double> us;
    std::uint64_t round = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        ping.pass();
        pong.await(++round);
        us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    stop.store(true, std::memory_order_release);
    ping.pass();
    partner.join();
    if (restore) sched_setaffinity(0, sizeof(saved), &saved);
    std::sort(us.begin(), us.end());
    state.counters["p50_us"] = us[us.size() / 2];
    state.counters["p90_us"] = us[us.size() * 9 / 10];
}
BENCHMARK(BM_FutexParkWakeRoundTrip)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
