// Table 2 — single-processor per-operation statistics at 1 and 20
// threads: relative latency, instructions, atomic operations, cache
// misses.
//
// Paper shape at 20 threads (relative to LCRQ): LCRQ-CAS 2.7x latency
// with ~3 atomic ops/op (CAS retries), CC-Queue 1.45x with 867 instr/op
// of serial combiner work, FC 3.51x with 3846 instr/op, MS 5.95x with
// 4.3 atomic ops/op.  LCRQ itself: exactly 2 atomic ops per operation.
//
// Here the "atomic operations" and CAS-failure rows come from the
// always-on software counters (deterministic); instructions and cache
// misses come from perf_event_open when the kernel allows it, else n/a.
#include <cstdio>
#include <thread>

#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "util/perf_events.hpp"
#include "util/table.hpp"

using namespace lcrq;
using namespace lcrq::bench;

namespace {

struct Row {
    std::string queue;
    double ns_per_op;
    double atomics_per_op;
    double cas_fail_per_op;
    double faa_per_op;
    std::string instr_cell;
    std::string l1_cell;
    std::string llc_cell;
    std::string dtlb_cell;
};

Row measure(const std::string& name, const QueueOptions& qopt, RunConfig cfg,
            JsonReport& report) {
    stats::reset_all();
    cfg.measure_hw = true;
    const RunResult r = run_pairs(name, qopt, cfg);
    report.add_result(result_json(name, cfg, r));
    Row row;
    row.queue = name;
    row.ns_per_op = r.ns_per_op(cfg.threads);
    const double ops = static_cast<double>(r.events.operations());
    if (ops > 0) {
        row.atomics_per_op = static_cast<double>(r.events.atomic_ops()) / ops;
        row.cas_fail_per_op = static_cast<double>(r.events[stats::Event::kCasFailure] +
                                                  r.events[stats::Event::kCas2Failure]) /
                              ops;
        row.faa_per_op = static_cast<double>(r.events[stats::Event::kFaa]) / ops;
    } else {
        row.atomics_per_op = row.cas_fail_per_op = row.faa_per_op = 0;
    }
    row.instr_cell = hw_cell(r.hw, ops, HwEvent::kInstructions, 0);
    row.l1_cell = hw_cell(r.hw, ops, HwEvent::kL1DMisses);
    row.llc_cell = hw_cell(r.hw, ops, HwEvent::kLLCMisses);
    row.dtlb_cell = hw_cell(r.hw, ops, HwEvent::kDTLBMisses);
    return row;
}

void print_block(const char* title, const std::vector<std::string>& queues,
                 const QueueOptions& qopt, const RunConfig& cfg, bool csv,
                 JsonReport& report) {
    std::printf("--- %s ---\n", title);
    std::vector<Row> rows;
    for (const auto& q : queues) rows.push_back(measure(q, qopt, cfg, report));
    // !(x > 0) also catches the NaN a failed run reports.
    const double base = rows.empty() || !(rows.front().ns_per_op > 0)
                            ? 1.0
                            : rows.front().ns_per_op;

    Table table({"queue", "latency us/op", "rel latency", "atomic ops/op",
                 "CAS fails/op", "F&A/op", "instr/op", "L1d miss/op",
                 "LLC miss/op", "dTLB miss/op"});
    for (auto& r : rows) {
        table.row()
            .cell(r.queue)
            .cell(r.ns_per_op / 1e3, 3)
            .cell(r.ns_per_op / base, 2)
            .cell(r.atomics_per_op, 2)
            .cell(r.cas_fail_per_op, 2)
            .cell(r.faa_per_op, 2)
            .cell(r.instr_cell)
            .cell(r.l1_cell)
            .cell(r.llc_cell)
            .cell(r.dtlb_cell);
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
    Cli cli("table2_stats", "Table 2: single-processor per-operation statistics");
    RunConfig defaults;
    defaults.threads = 20;
    defaults.pairs_per_thread = 20'000;
    defaults.runs = 1;
    defaults.placement = topo::Placement::kSingleCluster;
    add_common_flags(cli, defaults);
    cli.flag("queues", "", "comma names override (default: paper table 2 set)");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;

    RunConfig cfg = config_from_cli(cli);
    const QueueOptions qopt = queue_options_from_cli(cli);
    std::vector<std::string> queues = paper_single_processor_set();
    if (const auto names = split_names(cli.get("queues")); !names.empty()) {
        queues = names;
    }

    print_banner("Table 2: single-processor per-operation statistics",
                 "LCRQ completes an operation with exactly 2 atomic ops and no "
                 "retries; LCRQ-CAS/MS pay CAS failures, combining queues pay "
                 "serial combiner instructions",
                 cfg);
    print_pmu_note();

    JsonReport report("table2_stats");
    report.set_config(cfg);
    RunConfig one = cfg;
    one.threads = 1;
    print_block("1 thread (queue initially empty)", queues, qopt, one,
                cli.get_bool("csv"), report);
    print_block((std::to_string(cfg.threads) + " threads (queue initially empty)").c_str(),
                queues, qopt, cfg, cli.get_bool("csv"), report);
    return report.write_if_requested(cli) ? 0 : 1;
}
