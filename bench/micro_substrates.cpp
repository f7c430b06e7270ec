// google-benchmark microbenchmarks of the supporting substrates — the
// costs that sit *around* every queue operation in the harness, kept
// honest here so a regression in a substrate is not misread as an
// algorithmic effect:
//   hazard-pointer protect/clear and retire/scan, event-counter bumps,
//   thread-id lookup, histogram recording, RNG draw, rdtsc.
#include <benchmark/benchmark.h>

#include <atomic>

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

void BM_CounterBump(benchmark::State& state) {
    for (auto _ : state) {
        stats::count(stats::Event::kFaa);
    }
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

}  // namespace

BENCHMARK_MAIN();
