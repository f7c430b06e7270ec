// google-benchmark microbenchmarks of the supporting substrates — the
// costs that sit *around* every queue operation in the harness, kept
// honest here so a regression in a substrate is not misread as an
// algorithmic effect:
//   hazard-pointer protect/clear and retire/scan, event-counter bumps,
//   thread-id lookup, histogram recording, RNG draw, rdtsc, and one TSC
//   calibration.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "arch/thread_id.hpp"
#include "hazard/hazard_pointers.hpp"
#include "util/histogram.hpp"
#include "util/timing.hpp"
#include "util/xorshift.hpp"

namespace {

using namespace lcrq;

void BM_HazardProtectClear(benchmark::State& state) {
    HazardDomain domain;
    std::atomic<int*> shared{new int(7)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(domain.protect(shared, 0));
        domain.clear(0);
    }
    delete shared.load();
}
BENCHMARK(BM_HazardProtectClear);

void BM_HazardRetireScanAmortized(benchmark::State& state) {
    HazardDomain domain;
    for (auto _ : state) {
        domain.retire(new int(1));  // amortized scan kicks in at the threshold
    }
}
BENCHMARK(BM_HazardRetireScanAmortized);

// What a segment retire costs the list layer: it drains at once, so each
// retire pays a full scan of the published slots.  A few other threads
// hold slots published meanwhile, as a live queue's do.
void BM_HazardRetireDrainNow(benchmark::State& state) {
    constexpr int kForeign = 3;
    HazardDomain domain;
    int pinned[kForeign] = {};
    std::atomic<int> published{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> foreign;
    for (int i = 0; i < kForeign; ++i) {
        foreign.emplace_back([&, i] {
            const std::atomic<int*> src{&pinned[i]};
            domain.protect(src, 0);
            published.fetch_add(1);
            done.wait(false);
            domain.clear(0);
        });
    }
    while (published.load() < kForeign) std::this_thread::yield();
    for (auto _ : state) {
        domain.retire(new int(1));
        domain.drain_now();
    }
    done.store(true);
    done.notify_all();
    for (auto& t : foreign) t.join();
}
BENCHMARK(BM_HazardRetireDrainNow);

// A fixed rotation of 8 events per iteration: 8 independent load/add/store
// chains through 8 slots, so the time is the count path's, not one store
// forwarding into the next load of the same address.  Items are counts.
void BM_CounterBump(benchmark::State& state) {
    using stats::Event;
    for (auto _ : state) {
        stats::count(Event::kFaa);
        stats::count(Event::kSwap);
        stats::count(Event::kCas);
        stats::count(Event::kCasFailure);
        stats::count(Event::kCas2);
        stats::count(Event::kEnqueue);
        stats::count(Event::kDequeue);
        stats::count(Event::kDequeueEmpty);
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_CounterBump);

void BM_ThreadIndex(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(thread_index());
    }
}
BENCHMARK(BM_ThreadIndex);

void BM_HistogramRecord(benchmark::State& state) {
    LatencyHistogram h;
    std::uint64_t v = 1;
    for (auto _ : state) {
        h.record(v);
        v = v * 1664525 + 1013904223;
        v &= (1u << 20) - 1;
    }
    benchmark::DoNotOptimize(h.total());
}
BENCHMARK(BM_HistogramRecord);

void BM_RngDraw(benchmark::State& state) {
    Xoshiro256 rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.bounded(100));
    }
}
BENCHMARK(BM_RngDraw);

void BM_Rdtsc(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(rdtsc());
    }
}
BENCHMARK(BM_Rdtsc);

void BM_SpinForNs(benchmark::State& state) {
    for (auto _ : state) {
        spin_for_ns(static_cast<std::uint64_t>(state.range(0)));
    }
}
BENCHMARK(BM_SpinForNs)->Arg(0)->Arg(50)->Arg(100);

// What the first tsc_per_ns() call in a process costs.
void BM_TscCalibration(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(detail::calibrate_tsc());
    }
}
BENCHMARK(BM_TscCalibration)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
