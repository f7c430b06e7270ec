// google-benchmark microbenchmarks of single queue operations: the cost
// of an enqueue/dequeue pair on every registered queue, single-threaded
// (pure instruction cost, no contention) and multi-threaded — plus the
// same pair through a bounded blocking facade at a standing depth, through
// wCQ's helping slow path alone, and the CPU a blocking facade's idle
// waiters burn under a sparse arrival stream.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "queues/blocking_queue.hpp"
#include "queues/lcrq.hpp"
#include "queues/wcq.hpp"
#include "registry/queue_registry.hpp"

namespace {

using namespace lcrq;

QueueOptions micro_options() {
    QueueOptions opt;
    opt.ring_order = 10;
    opt.bounded_order = 16;
    opt.clusters = 2;
    return opt;
}

// Queues are created eagerly in main (before any benchmark thread runs)
// and shared across thread counts, so the benchmark body is race-free.
std::vector<std::unique_ptr<AnyQueue>>& instances() {
    static std::vector<std::unique_ptr<AnyQueue>> qs;
    return qs;
}

void BM_EnqueueDequeuePair(benchmark::State& state, AnyQueue* q) {
    for (auto _ : state) {
        q->enqueue(1);
        benchmark::DoNotOptimize(q->dequeue());
    }
    state.SetItemsProcessed(state.iterations() * 2);
}

// One admission and one dequeue on a bounded BlockingQueue<LcrqQueue>
// (R = 2^6, capacity 2^22) that holds range(0) items (65,536 items =
// 1,025 segments): the single-thread price of the facade's size
// accounting — the per-thread tally lookup on both sides plus the
// admission's fast watermark check — on top of the list queue's own pair.
void BM_BoundedFacadePairAtDepth(benchmark::State& state) {
    QueueOptions opt;
    opt.ring_order = 6;
    BlockingQueue<LcrqQueue> q(opt, std::size_t{1} << 22);
    const auto depth = static_cast<value_t>(state.range(0));
    for (value_t v = 1; v <= depth; ++v) q.try_enqueue(v);
    value_t next = depth + 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.try_enqueue(next++));
        benchmark::DoNotOptimize(q.try_dequeue());
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_BoundedFacadePairAtDepth)->Arg(0)->Arg(4096)->Arg(65536);

// One wCQ ring of order 3 seeded with its 8 indices, every operation
// forced onto the helping slow path (as WcqRing.ConcurrentSlowPathCirculation
// drives it): the price of the help-record layout when concurrent slow
// paths publish, help and release side by side.  Built in main, before
// any benchmark thread runs; each thread returns the index it took, so the
// ring holds at least 8 - threads indices and a dequeue never sees EMPTY.
WcqRing<>& slow_path_ring() {
    static WcqRing<> ring(3, 0, 8);
    return ring;
}

void BM_WcqAllSlowPath(benchmark::State& state) {
    WcqRing<>& r = slow_path_ring();
    for (auto _ : state) {
        std::optional<std::uint64_t> idx;
        if (!r.debug_dequeue_slow(idx) || !idx.has_value()) continue;
        if (!r.debug_enqueue_slow(*idx)) r.enqueue(*idx);  // slot collision
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_WcqAllSlowPath)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// range(0) waiters loop on wait_dequeue_for(1 ms), as perfbench's dispatch
// workers do, on a BlockingQueue<LcrqQueue> that this thread feeds one
// item every 3.3 us (dispatch's 0.3 Mreq/s, evenly spaced): the price of
// idle waiting beyond dispatch's two workers.  waiter_cpus is the waiters'
// thread CPU time per wall-clock second, in CPUs; with one spinner per
// facade it should stay near one however many wait.
void BM_IdleWaitersCpu(benchmark::State& state) {
    constexpr std::uint64_t kGapNs = 3'300;
    const auto waiters = static_cast<int>(state.range(0));
    BlockingQueue<LcrqQueue> q;
    std::atomic<std::uint64_t> cpu_ns{0};
    const std::uint64_t wall0 = now_ns();
    std::vector<std::thread> threads;
    for (int w = 0; w < waiters; ++w) {
        threads.emplace_back([&] {
            const std::uint64_t c0 = thread_cpu_ns();
            while (!q.wait_dequeue_for(1'000'000).closed()) {
            }
            cpu_ns.fetch_add(thread_cpu_ns() - c0, std::memory_order_relaxed);
        });
    }
    const auto gap_ticks = static_cast<std::uint64_t>(static_cast<double>(kGapNs) * tsc_per_ns());
    std::uint64_t next = rdtsc();
    value_t v = 0;
    for (auto _ : state) {
        next += gap_ticks;
        while (rdtsc() < next) cpu_relax();
        benchmark::DoNotOptimize(q.try_enqueue(++v));
    }
    q.close();
    for (std::thread& t : threads) t.join();
    const double wall_ns = static_cast<double>(now_ns() - wall0);
    state.counters["waiter_cpus"] = static_cast<double>(cpu_ns.load()) / wall_ns;
}
BENCHMARK(BM_IdleWaitersCpu)->Arg(1)->Arg(2)->Arg(3)->Iterations(150'000)->UseRealTime();

void register_all() {
    slow_path_ring();

    for (const auto& info : queue_catalog()) {
        // Deferred-reclamation baselines would grow without bound under
        // google-benchmark's open-ended iteration counts.
        if (info.deferred_reclamation) continue;
        instances().push_back(make_queue(info.name, micro_options()));
        AnyQueue* q = instances().back().get();
        auto* b = benchmark::RegisterBenchmark(
            ("BM_Pair/" + info.name).c_str(),
            [q](benchmark::State& s) { BM_EnqueueDequeuePair(s, q); });
        b->ThreadRange(1, 4)->UseRealTime();
    }
}

}  // namespace

int main(int argc, char** argv) {
    register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
