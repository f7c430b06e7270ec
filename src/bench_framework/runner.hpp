// Benchmark runner implementing the paper's methodology (§5):
//
//   * each thread executes N enqueue/dequeue *pairs* on one shared queue;
//   * a random delay of up to `max_delay_ns` (paper: 100 ns) is inserted
//     between operations to break artificial long runs;
//   * threads are pinned per the experiment's placement policy and their
//     cluster id is published for the hierarchical algorithms;
//   * the reported number is total operations / wall time for *all*
//     threads to finish, averaged over `runs` runs on a fresh queue each.
//
// Optionally samples per-operation latency into per-thread histograms
// (Fig. 8) and snapshots the software event counters around the run
// (Tables 2/3, Fig. 1).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "arch/counters.hpp"
#include "registry/queue_registry.hpp"
#include "topology/pinning.hpp"
#include "util/histogram.hpp"
#include "util/perf_events.hpp"
#include "util/stats.hpp"

namespace lcrq::bench {

// Workload shapes.  The paper's methodology is kPairs (every thread
// alternates enqueue/dequeue); the other two are common application
// shapes the harness supports as extensions:
//   kProducerConsumer — the first ceil(T/2) threads enqueue their quota,
//                       the rest dequeue until everything was consumed;
//   kMix5050          — every thread flips a coin per operation.
enum class Workload { kPairs, kProducerConsumer, kMix5050 };

const char* workload_name(Workload w) noexcept;
bool parse_workload(const std::string& s, Workload& out) noexcept;

struct RunConfig {
    int threads = 2;
    std::uint64_t pairs_per_thread = 100'000;
    Workload workload = Workload::kPairs;
    int runs = 3;
    topo::Placement placement = topo::Placement::kSingleCluster;
    // Virtual cluster count for topology emulation; 0 = discovered.
    int clusters = 0;
    std::uint64_t max_delay_ns = 100;
    // Items enqueued before the clock starts (Fig. 7a uses 2^16).
    std::uint64_t prefill = 0;
    // 0 = no latency sampling; k = sample every k-th operation.
    std::uint64_t latency_sample_every = 0;
    // Open per-thread perf_event counters around the measured loop
    // (Tables 2/3 hardware rows); silently degrades where not permitted.
    bool measure_hw = false;
    std::uint64_t rng_seed = 42;
};

struct RunResult {
    RunningStats throughput;      // ops/sec per run (2 * pairs * threads / wall)
    LatencyHistogram latency;     // merged over runs and threads (if sampled)
    stats::Snapshot events;       // counter delta over all runs
    HwCounts hw;                  // summed hardware counts (if measured/permitted)
    std::uint64_t total_ops = 0;  // completed operations across runs
    std::uint64_t empty_dequeues = 0;

    double mean_ops_per_sec() const noexcept { return throughput.mean(); }
    // Average wall-clock nanoseconds per operation (pair latency / 2).
    // A failed or zero-throughput run yields NaN, not 0: a comparator must
    // be able to tell "no data" from "infinitely fast" (the JSON emitter
    // serializes the NaN as null).
    double ns_per_op(int threads) const noexcept {
        const double t = throughput.mean();
        return t <= 0 ? std::numeric_limits<double>::quiet_NaN()
                      : 1e9 * static_cast<double>(threads) / t;
    }
};

using QueueFactory = std::function<std::unique_ptr<AnyQueue>()>;

// Run the pairs workload; constructs a fresh queue per run.  More than
// max_threads() threads is refused with a stderr message and an empty
// result (ns_per_op NaN), before any queue or thread exists.
RunResult run_pairs(const QueueFactory& factory, const RunConfig& cfg);

// Convenience: resolve by registry name with shared options.
RunResult run_pairs(const std::string& queue_name, const QueueOptions& qopt,
                    const RunConfig& cfg);

// The effective topology a config runs on (honors cfg.clusters).
topo::Topology effective_topology(const RunConfig& cfg);

// Producer count of the kProducerConsumer workload: ceil(T/2), and 1 for
// a single thread.
int effective_producers(const RunConfig& cfg) noexcept;

}  // namespace lcrq::bench
