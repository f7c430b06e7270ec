// Figure 1 — time to increment a contended counter: hardware F&A vs a CAS
// loop, across thread counts.  Left axis: ns per completed increment;
// right axis: CAS attempts per completed increment for the CAS loop.
//
// The paper's punchline: F&A always succeeds, so its cost is pure
// coherence; the CAS loop additionally wastes work on failures, growing
// with concurrency (4–6x slower at scale on the paper's 80-thread box).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/thread_id.hpp"
#include "bench_framework/json_report.hpp"
#include "topology/pinning.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace lcrq;

struct CounterResult {
    double ns_per_increment;
    double cas_per_increment;  // 1.0 means no wasted attempts
};

template <typename Policy>
CounterResult run_counter(int threads, std::uint64_t increments_per_thread,
                          const std::vector<topo::ThreadSlot>& plan) {
    alignas(kDestructivePairSize) static std::atomic<std::uint64_t> counter{0};
    counter.store(0);
    stats::reset_all();

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            topo::pin_self(plan[static_cast<std::size_t>(t)]);
            ready.fetch_add(1);
            SpinWait w;
            while (!go.load(std::memory_order_acquire)) w.spin();
            for (std::uint64_t i = 0; i < increments_per_thread; ++i) {
                Policy::fetch_add(counter, 1);
            }
        });
    }
    while (ready.load() < threads) std::this_thread::yield();
    const auto t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const auto t1 = now_ns();

    const auto total = static_cast<double>(threads) *
                       static_cast<double>(increments_per_thread);
    const auto snap = stats::global_snapshot();
    const double cas_attempts = static_cast<double>(snap[stats::Event::kCas]);

    CounterResult r;
    r.ns_per_increment = static_cast<double>(t1 - t0) / total * threads;
    r.cas_per_increment = cas_attempts > 0 ? cas_attempts / total : 0.0;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("fig1_counter",
            "Figure 1: contended counter increment, F&A vs CAS loop");
    cli.flag("threads", "1,2,4,8,16,32,64,80", "thread counts to sweep");
    cli.flag("increments", "200000", "increments per thread (paper used ~1e7)");
    cli.flag("placement", "round-robin", "single-cluster | round-robin | unpinned");
    cli.flag("clusters", "4", "virtual clusters for placement");
    cli.flag("csv", "false", "CSV output");
    cli.flag("json", "", "also write a machine-readable report to this path");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;
    // Every counting thread holds a dense thread id (its counter block's
    // index), so a sweep point past max_threads() would wait in the id
    // pool instead of measuring.  Refuse before starting any thread.
    for (std::int64_t t : cli.get_int_list("threads")) {
        if (t < 1 || static_cast<std::size_t>(t) > max_threads()) {
            std::fprintf(stderr,
                         "--threads entries must be in [1, max_threads() = %zu] (got %lld)\n",
                         max_threads(), static_cast<long long>(t));
            return 1;
        }
    }

    topo::Topology topology = topo::discover();
    const int clusters = static_cast<int>(cli.get_int("clusters"));
    if (clusters > 0) topology = topo::make_virtual(topology, clusters);
    topo::Placement placement = topo::Placement::kRoundRobin;
    topo::parse_placement(cli.get("placement"), placement);

    std::printf("=== Figure 1: contended counter, F&A vs CAS loop ===\n");
    std::printf("paper: F&A outperforms the CAS loop 4-6x under contention; the CAS\n");
    std::printf("       loop needs several attempts per increment at high thread counts\n");
    std::printf("host:  %s\n\n", topo::describe(topology).c_str());

    const auto increments = static_cast<std::uint64_t>(cli.get_int("increments"));
    bench::JsonReport report("fig1_counter");
    report.set_extra("increments_per_thread",
                     Json(static_cast<std::uint64_t>(increments)));
    Table table({"threads", "faa ns/inc", "cas-loop ns/inc", "slowdown", "CAS/inc"});
    for (std::int64_t threads : cli.get_int_list("threads")) {
        const auto plan =
            topo::plan_placement(topology, static_cast<int>(threads), placement);
        const auto faa =
            run_counter<HardwareFaa>(static_cast<int>(threads), increments, plan);
        const auto casloop =
            run_counter<CasLoopFaa>(static_cast<int>(threads), increments, plan);
        report.add_result(Json::object()
                              .set("queue", "counter-faa")
                              .set("workload", "increment")
                              .set("threads", threads)
                              .set("ns_per_op", faa.ns_per_increment));
        report.add_result(Json::object()
                              .set("queue", "counter-cas-loop")
                              .set("workload", "increment")
                              .set("threads", threads)
                              .set("ns_per_op", casloop.ns_per_increment)
                              .set("cas_per_increment", casloop.cas_per_increment));
        table.row()
            .cell(threads)
            .cell(faa.ns_per_increment, 1)
            .cell(casloop.ns_per_increment, 1)
            .cell(casloop.ns_per_increment /
                      (faa.ns_per_increment > 0 ? faa.ns_per_increment : 1),
                  2)
            .cell(casloop.cas_per_increment, 2);
    }
    if (cli.get_bool("csv")) {
        table.print_csv();
    } else {
        table.print();
    }
    std::printf("\nNote: ns/inc is normalized per thread (wall time x threads / total\n"
                "increments), matching the paper's 'time to increment' metric.\n");
    return report.write_if_requested(cli) ? 0 : 1;
}
