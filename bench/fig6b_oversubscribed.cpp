// Figure 6b — oversubscribed throughput: thread counts beyond the
// hardware threads, unpinned, so the OS preempts freely.
//
// Paper shape: the lock-based combining queues collapse when a combiner
// is scheduled out (FC drops ~40x, CC-Queue ~15x) while the nonblocking
// LCRQ and MS queue hold their peak throughput; LCRQ ends up >20x ahead
// of CC-Queue.  This is the one experiment whose mechanism this 1-CPU
// host reproduces exactly as in the paper — every multi-thread run here
// is oversubscribed.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "arch/thread_id.hpp"
#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "util/table.hpp"

using namespace lcrq;
using namespace lcrq::bench;

int main(int argc, char** argv) {
    Cli cli("fig6b_oversubscribed",
            "Figure 6b: throughput with more threads than hardware threads");
    RunConfig defaults;
    // Long enough per run that preemption lands inside lock-held windows
    // a meaningful number of times — short runs mute the collapse.
    defaults.pairs_per_thread = 20'000;
    defaults.runs = 2;
    defaults.placement = topo::Placement::kUnpinned;
    add_common_flags(cli, defaults);
    cli.flag("thread-list", "",
             "thread counts (default: hw, 2*hw, 8*hw, 32*hw, at most max_threads())");
    cli.flag("queues", "", "comma names override (default: paper fig 6 set)");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;

    RunConfig cfg = config_from_cli(cli);
    const QueueOptions qopt = queue_options_from_cli(cli);

    // The paper's set plus the non-yielding two-lock queue: our lock-based
    // baselines spin politely (yield when oversubscribed), which mutes the
    // collapse on small hosts; the blind-spinning variant shows the raw
    // preempted-lock-holder effect the figure is about.
    std::vector<std::string> queues = paper_single_processor_set();
    queues.push_back("two-lock-blind");
    if (const auto names = split_names(cli.get("queues")); !names.empty()) {
        queues = names;
    }

    std::vector<std::int64_t> thread_list = cli.get_int_list("thread-list");
    if (thread_list.empty()) {
        const auto hw =
            static_cast<std::int64_t>(std::max(1u, std::thread::hardware_concurrency()));
        // Clamped to the dense-id space (run_pairs refuses more threads).
        const auto cap = static_cast<std::int64_t>(max_threads());
        for (const std::int64_t k : {1, 2, 8, 32}) {
            const std::int64_t t = std::min(k * hw, cap);
            if (thread_list.empty() || thread_list.back() != t) thread_list.push_back(t);
        }
    }

    cfg.threads = static_cast<int>(thread_list.front());
    print_banner("Figure 6b: oversubscribed throughput (unpinned threads)",
                 "lock-based combining collapses (FC ~40x, CC ~15x) once combiners "
                 "get preempted; nonblocking LCRQ/MS hold peak; LCRQ ends >20x over "
                 "CC-Queue",
                 cfg);

    std::vector<std::string> header = {"threads"};
    for (const auto& q : queues) header.push_back(q + " Mops/s");
    Table table(header);
    JsonReport report("fig6b_oversubscribed");
    report.set_config(cfg);

    for (std::int64_t threads : thread_list) {
        cfg.threads = static_cast<int>(threads);
        auto row = table.row();
        row.cell(threads);
        for (const auto& name : queues) {
            const RunResult r = run_pairs(name, qopt, cfg);
            row.cell(r.mean_ops_per_sec() / 1e6, 3);
            report.add_result(result_json(name, cfg, r));
        }
    }
    if (cli.get_bool("csv")) {
        table.print_csv();
    } else {
        table.print();
    }
    return report.write_if_requested(cli) ? 0 : 1;
}
