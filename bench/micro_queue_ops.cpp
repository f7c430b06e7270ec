// google-benchmark microbenchmarks of single queue operations: the cost
// of an enqueue/dequeue pair on every registered queue, single-threaded
// (pure instruction cost, no contention) and multi-threaded — plus the
// same pair through a bounded blocking facade at a standing depth, and
// through wCQ's helping slow path alone.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>

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
