#include "bench_framework/runner.hpp"

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/thread_id.hpp"
#include "util/timing.hpp"
#include "util/xorshift.hpp"

namespace lcrq::bench {

namespace {

// Sense-reversing start barrier: workers park on `go` after signalling
// ready; the coordinator flips it once all are parked.
struct StartGate {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
};

struct WorkerOutput {
    LatencyHistogram latency;
    HwCounts hw;
    std::uint64_t empty_dequeues = 0;
    std::uint64_t ops = 0;
};

// Cross-worker coordination for the producer/consumer workload.
struct SharedProgress {
    std::atomic<std::uint64_t> consumed{0};
    std::uint64_t target = 0;
};

// Timestamp-sampling wrappers shared by the workload bodies.
class OpRecorder {
  public:
    OpRecorder(const RunConfig& cfg, int worker_id, WorkerOutput& out)
        : out_(out), every_(cfg.latency_sample_every) {
        if (every_ != 0) {
            until_ = static_cast<std::uint64_t>(worker_id) % every_;
        }
    }

    void enqueue(AnyQueue& q, value_t v) {
        if (due()) {
            const std::uint64_t t0 = rdtsc();
            q.enqueue(v);
            out_.latency.record(static_cast<std::uint64_t>(tsc_to_ns(rdtsc() - t0)));
        } else {
            q.enqueue(v);
        }
        ++out_.ops;
    }

    bool dequeue(AnyQueue& q) {
        bool got;
        if (due()) {
            const std::uint64_t t0 = rdtsc();
            got = q.dequeue().has_value();
            out_.latency.record(static_cast<std::uint64_t>(tsc_to_ns(rdtsc() - t0)));
        } else {
            got = q.dequeue().has_value();
        }
        ++out_.ops;
        if (!got) ++out_.empty_dequeues;
        return got;
    }

  private:
    bool due() {
        if (every_ == 0) return false;
        if (until_ == 0) {
            until_ = every_ - 1;
            return true;
        }
        --until_;
        return false;
    }

    WorkerOutput& out_;
    std::uint64_t every_;
    std::uint64_t until_ = 0;
};

void worker_body(AnyQueue& q, const RunConfig& cfg, const topo::ThreadSlot& slot,
                 int worker_id, StartGate& gate, SharedProgress& progress,
                 WorkerOutput& out) {
    topo::pin_self(slot);
    Xoshiro256 rng(cfg.rng_seed * 0x1000193 + static_cast<std::uint64_t>(worker_id));
    std::unique_ptr<PerfCounters> perf;
    if (cfg.measure_hw) perf = std::make_unique<PerfCounters>();
    OpRecorder rec(cfg, worker_id, out);

    gate.ready.fetch_add(1, std::memory_order_acq_rel);
    SpinWait waiter;
    while (!gate.go.load(std::memory_order_acquire)) waiter.spin();
    if (perf != nullptr) perf->start();

    const auto vbase = (static_cast<value_t>(worker_id) << 40) + 1;
    const auto delay = [&] {
        if (cfg.max_delay_ns != 0) spin_for_ns(rng.bounded(cfg.max_delay_ns + 1));
    };

    switch (cfg.workload) {
        case Workload::kPairs:
            for (std::uint64_t i = 0; i < cfg.pairs_per_thread; ++i) {
                rec.enqueue(q, vbase + i);
                delay();
                rec.dequeue(q);
                delay();
            }
            break;

        case Workload::kProducerConsumer: {
            const int producers = effective_producers(cfg);
            if (worker_id < producers) {
                for (std::uint64_t i = 0; i < cfg.pairs_per_thread; ++i) {
                    rec.enqueue(q, vbase + i);
                    delay();
                }
            } else {
                while (progress.consumed.load(std::memory_order_acquire) <
                       progress.target) {
                    if (rec.dequeue(q)) {
                        progress.consumed.fetch_add(1, std::memory_order_acq_rel);
                    }
                    delay();
                }
            }
            break;
        }

        case Workload::kMix5050:
            for (std::uint64_t i = 0; i < 2 * cfg.pairs_per_thread; ++i) {
                if (rng.bounded(2) == 0) {
                    rec.enqueue(q, vbase + i);
                } else {
                    rec.dequeue(q);
                }
                delay();
            }
            break;
    }
    if (perf != nullptr) out.hw = perf->stop();
}

}  // namespace

const char* workload_name(Workload w) noexcept {
    switch (w) {
        case Workload::kPairs: return "pairs";
        case Workload::kProducerConsumer: return "prodcons";
        case Workload::kMix5050: return "mix";
    }
    return "?";
}

bool parse_workload(const std::string& s, Workload& out) noexcept {
    if (s == "pairs") {
        out = Workload::kPairs;
    } else if (s == "prodcons" || s == "producer-consumer") {
        out = Workload::kProducerConsumer;
    } else if (s == "mix" || s == "mix5050") {
        out = Workload::kMix5050;
    } else {
        return false;
    }
    return true;
}

int effective_producers(const RunConfig& cfg) noexcept {
    return cfg.threads > 1 ? (cfg.threads + 1) / 2 : 1;
}

topo::Topology effective_topology(const RunConfig& cfg) {
    topo::Topology t = topo::discover();
    if (cfg.clusters > 0 && cfg.clusters != t.num_clusters) {
        t = topo::make_virtual(t, cfg.clusters);
    }
    return t;
}

RunResult run_pairs(const QueueFactory& factory, const RunConfig& cfg) {
    RunResult result;
    // Past max_threads() live threads, a worker waits in ThreadIdPool::acquire
    // for an earlier one to exit, so the run would not measure cfg.threads.
    if (static_cast<std::size_t>(cfg.threads) > max_threads()) {
        std::fprintf(stderr, "run_pairs: %d threads exceed max_threads() = %zu\n",
                     cfg.threads, max_threads());
        return result;
    }
    // The TSC/ns ratio is calibrated lazily (1 ms on a user-space clock,
    // up to 10 ms); force it here so no worker pays it inside the measured
    // loop.
    (void)tsc_per_ns();
    const topo::Topology topology = effective_topology(cfg);
    const auto plan = topo::plan_placement(topology, cfg.threads, cfg.placement);

    const stats::Snapshot before = stats::global_snapshot();

    for (int run = 0; run < cfg.runs; ++run) {
        std::unique_ptr<AnyQueue> q = factory();
        for (std::uint64_t i = 0; i < cfg.prefill; ++i) {
            q->enqueue((value_t{1} << 56) + i);
        }

        StartGate gate;
        SharedProgress progress;
        if (cfg.workload == Workload::kProducerConsumer) {
            const int producers = effective_producers(cfg);
            progress.target = static_cast<std::uint64_t>(producers) *
                                  cfg.pairs_per_thread +
                              cfg.prefill;
        }
        std::vector<WorkerOutput> outputs(static_cast<std::size_t>(cfg.threads));
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(cfg.threads));
        for (int w = 0; w < cfg.threads; ++w) {
            workers.emplace_back(worker_body, std::ref(*q), std::cref(cfg),
                                 std::cref(plan[static_cast<std::size_t>(w)]), w,
                                 std::ref(gate), std::ref(progress),
                                 std::ref(outputs[static_cast<std::size_t>(w)]));
        }
        while (gate.ready.load(std::memory_order_acquire) < cfg.threads) {
            std::this_thread::yield();
        }
        const std::uint64_t t0 = now_ns();
        gate.go.store(true, std::memory_order_release);
        for (auto& w : workers) w.join();
        const std::uint64_t t1 = now_ns();

        std::uint64_t run_ops = 0;
        for (const auto& o : outputs) {
            run_ops += o.ops;
            result.total_ops += o.ops;
            result.empty_dequeues += o.empty_dequeues;
            result.latency.merge(o.latency);
            for (std::size_t e = 0; e < kHwEventCount; ++e) {
                if (o.hw.valid[e]) {
                    result.hw.counts[e] += o.hw.counts[e];
                    result.hw.valid[e] = true;
                } else if (result.hw.reason[e].empty() && !o.hw.reason[e].empty()) {
                    // Keep the first worker's denial reason next to the
                    // hole it explains, for the report's "unavailable" map.
                    result.hw.reason[e] = o.hw.reason[e];
                }
            }
        }
        const double secs = static_cast<double>(t1 - t0) / 1e9;
        if (secs > 0) {
            result.throughput.add(static_cast<double>(run_ops) / secs);
        }
    }

    result.events = stats::global_snapshot() - before;
    return result;
}

RunResult run_pairs(const std::string& queue_name, const QueueOptions& qopt,
                    const RunConfig& cfg) {
    QueueOptions opt = qopt;
    if (opt.clusters == 0 && cfg.clusters > 0) opt.clusters = cfg.clusters;
    return run_pairs(
        [&] {
            auto q = make_queue(queue_name, opt);
            if (q == nullptr) alloc_failure();
            return q;
        },
        cfg);
}

}  // namespace lcrq::bench
