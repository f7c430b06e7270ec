// Table 3 — four-processor per-operation statistics at maximum
// concurrency (paper: 80 threads round-robin over 4 sockets), for a
// queue that starts empty and one prefilled with 2^16 items.
//
// Paper shape (80 threads): LCRQ(+H) stay at exactly 2 atomic ops/op;
// LCRQ-CAS pays ~2.9 atomic ops/op in retries and 2x LCRQ's latency;
// the combining queues execute thousands of instructions per op
// (CC-Queue ~16-18k) and H-Queue's L3 misses triple when prefilled
// (0.34 -> 0.95), dropping its throughput ~40%.
#include <cstdio>
#include <thread>

#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "util/perf_events.hpp"
#include "util/table.hpp"

using namespace lcrq;
using namespace lcrq::bench;

namespace {

void print_block(const char* title, const char* mode,
                 const std::vector<std::string>& queues, const QueueOptions& qopt,
                 RunConfig cfg, bool csv, JsonReport& report) {
    std::printf("--- %s ---\n", title);
    cfg.measure_hw = true;

    Table table({"queue", "latency us/op", "rel latency", "atomic ops/op",
                 "CAS fails/op", "F&A/op", "cluster handoffs", "instr/op",
                 "L1d miss/op", "LLC miss/op", "dTLB miss/op"});
    double base = 0;
    for (const auto& name : queues) {
        stats::reset_all();
        const RunResult r = run_pairs(name, qopt, cfg);
        report.add_result(result_json(name, cfg, r).set("mode", mode));
        const double ops = static_cast<double>(r.events.operations());
        const double ns = r.ns_per_op(cfg.threads);
        if (base <= 0) base = ns > 0 ? ns : 1;
        table.row()
            .cell(name)
            .cell(ns / 1e3, 3)
            .cell(ns / base, 2)
            .cell(ops > 0 ? static_cast<double>(r.events.atomic_ops()) / ops : 0, 2)
            .cell(ops > 0 ? static_cast<double>(
                                r.events[stats::Event::kCasFailure] +
                                r.events[stats::Event::kCas2Failure]) /
                                ops
                          : 0,
                  2)
            .cell(ops > 0 ? static_cast<double>(r.events[stats::Event::kFaa]) / ops : 0,
                  2)
            .cell(r.events[stats::Event::kClusterHandoff])
            .cell(hw_cell(r.hw, ops, HwEvent::kInstructions, 0))
            .cell(hw_cell(r.hw, ops, HwEvent::kL1DMisses))
            .cell(hw_cell(r.hw, ops, HwEvent::kLLCMisses))
            .cell(hw_cell(r.hw, ops, HwEvent::kDTLBMisses));
    }
    if (csv) {
        table.print_csv();
    } else {
        table.print();
    }
    std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("table3_stats", "Table 3: four-processor per-operation statistics");
    RunConfig defaults;
    defaults.threads = 16;  // paper: 80; scale to the host via --threads
    defaults.pairs_per_thread = 5'000;
    defaults.runs = 1;
    defaults.placement = topo::Placement::kRoundRobin;
    defaults.clusters = 4;
    add_common_flags(cli, defaults);
    cli.flag("fill", "65536", "prefill for the 'initially full' block (paper: 2^16)");
    cli.flag("queues", "", "comma names override (default: paper table 3 set)");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;

    RunConfig cfg = config_from_cli(cli);
    const QueueOptions qopt = queue_options_from_cli(cli);
    std::vector<std::string> queues = paper_multi_processor_set();
    if (const auto names = split_names(cli.get("queues")); !names.empty()) {
        queues = names;
    }

    print_banner("Table 3: four-processor per-operation statistics",
                 "LCRQ(+H) hold 2 atomic ops/op at 80 threads; LCRQ-CAS ~2.9 and 2x "
                 "latency; combining queues run 5-18k instructions per op",
                 cfg);
    print_pmu_note();

    JsonReport report("table3_stats");
    report.set_config(cfg);

    RunConfig empty_cfg = cfg;
    empty_cfg.prefill = 0;
    print_block("queue initially empty", "empty", queues, qopt, empty_cfg,
                cli.get_bool("csv"), report);

    RunConfig full_cfg = cfg;
    full_cfg.prefill = static_cast<std::uint64_t>(cli.get_int("fill"));
    print_block("queue initially full", "prefilled", queues, qopt, full_cfg,
                cli.get_bool("csv"), report);
    return report.write_if_requested(cli) ? 0 : 1;
}
