#include "bench_framework/report.hpp"

#include <cstdio>
#include <string>
#include <thread>

#include "topology/topology.hpp"
#include "util/perf_events.hpp"
#include "util/table.hpp"

namespace lcrq::bench {

void add_common_flags(Cli& cli, const RunConfig& defaults, unsigned ring_order) {
    cli.flag("threads", std::to_string(defaults.threads), "worker thread count");
    cli.flag("pairs", std::to_string(defaults.pairs_per_thread),
             "enqueue/dequeue pairs per thread (paper: 10000000)");
    cli.flag("runs", std::to_string(defaults.runs), "runs to average (paper: 10)");
    cli.flag("placement", topo::placement_name(defaults.placement),
             "thread placement: single-cluster | round-robin | unpinned");
    cli.flag("clusters", std::to_string(defaults.clusters),
             "virtual cluster count (0 = discovered topology)");
    cli.flag("delay-ns", std::to_string(defaults.max_delay_ns),
             "max random inter-operation delay in ns (paper: 100)");
    cli.flag("prefill", std::to_string(defaults.prefill),
             "items enqueued before the clock starts");
    cli.flag("ring-order", std::to_string(ring_order),
             "log2 of the CRQ ring size (paper: 17)");
    cli.flag("workload", workload_name(defaults.workload),
             "workload shape: pairs (paper) | prodcons | mix");
    cli.flag("csv", "false", "emit rows as CSV instead of an aligned table");
    cli.flag("json", "",
             "also write a machine-readable report to this path "
             "(schema: EXPERIMENTS.md)");
}

RunConfig config_from_cli(const Cli& cli) {
    RunConfig cfg;
    cfg.threads = static_cast<int>(cli.get_int("threads"));
    cfg.pairs_per_thread = static_cast<std::uint64_t>(cli.get_int("pairs"));
    cfg.runs = static_cast<int>(cli.get_int("runs"));
    topo::Placement p;
    if (topo::parse_placement(cli.get("placement"), p)) cfg.placement = p;
    Workload w;
    if (parse_workload(cli.get("workload"), w)) cfg.workload = w;
    cfg.clusters = static_cast<int>(cli.get_int("clusters"));
    cfg.max_delay_ns = static_cast<std::uint64_t>(cli.get_int("delay-ns"));
    cfg.prefill = static_cast<std::uint64_t>(cli.get_int("prefill"));
    return cfg;
}

QueueOptions queue_options_from_cli(const Cli& cli) {
    QueueOptions opt;
    opt.ring_order = static_cast<unsigned>(cli.get_int("ring-order"));
    opt.clusters = static_cast<int>(cli.get_int("clusters"));
    return opt;
}

void print_banner(const std::string& experiment_id, const std::string& paper_claim,
                  const RunConfig& cfg) {
    const topo::Topology t = effective_topology(cfg);
    std::printf("=== %s ===\n", experiment_id.c_str());
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("host:  %s (hw threads: %u)\n", topo::describe(t).c_str(),
                std::thread::hardware_concurrency());
    std::printf("run:   threads=%d pairs/thread=%llu runs=%d placement=%s clusters=%d "
                "delay<=%lluns prefill=%llu workload=%s\n",
                cfg.threads, static_cast<unsigned long long>(cfg.pairs_per_thread),
                cfg.runs, topo::placement_name(cfg.placement), t.num_clusters,
                static_cast<unsigned long long>(cfg.max_delay_ns),
                static_cast<unsigned long long>(cfg.prefill),
                workload_name(cfg.workload));
    if (static_cast<unsigned>(cfg.threads) > std::thread::hardware_concurrency()) {
        std::printf("note:  threads exceed hardware threads — oversubscribed regime; "
                    "absolute scaling reflects OS time-slicing, relative ordering and\n"
                    "       blocking-vs-nonblocking behaviour remain meaningful "
                    "(see EXPERIMENTS.md)\n");
    }
    std::printf("\n");
}

std::vector<std::string> split_names(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const auto comma = csv.find(',', pos);
        const auto end = comma == std::string::npos ? csv.size() : comma;
        if (end > pos) out.push_back(csv.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

std::string throughput_cell(const RunResult& r) {
    return format_si(r.mean_ops_per_sec(), 2) + "ops/s (cv " +
           format_double(100.0 * r.throughput.cv(), 1) + "%)";
}

std::string hw_cell(const HwCounts& hw, double ops, HwEvent e, int precision) {
    const auto v = hw.get(e);
    if (v.has_value() && ops > 0) {
        return format_double(static_cast<double>(*v) / ops, precision);
    }
    const auto& why = hw.reason[static_cast<std::size_t>(e)];
    if (why.empty()) return "n/a";
    // The errno text is the informative part; drop the syscall prefix.
    static constexpr const char kPrefix[] = "perf_event_open: ";
    static constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
    return "n/a (" + (why.rfind(kPrefix, 0) == 0 ? why.substr(kPrefixLen) : why) + ")";
}

void print_pmu_note() {
    PerfCounters probe;
    if (!probe.any_available()) {
        std::printf("hardware PMU rows: n/a on this host (%s); software-counter "
                    "rows below are exact\n\n",
                    probe.unavailable_reason().c_str());
    }
}

}  // namespace lcrq::bench
