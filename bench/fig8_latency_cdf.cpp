// Figure 8 — cumulative distribution of queue-operation latency at
// maximum concurrency: (a) single processor, (b) four processors.
//
// Paper shape: LCRQ(+H) latency is strongly front-loaded — single
// processor: 42% of LCRQ ops finish within 0.24 µs while *no* combining
// op does; four processors: 80% of LCRQ+H ops within 0.5 µs vs 30% for
// H-Queue — because combining operations spend time servicing others or
// waiting for a combiner.
#include <cstdio>

#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "util/table.hpp"

using namespace lcrq;
using namespace lcrq::bench;

int main(int argc, char** argv) {
    Cli cli("fig8_latency_cdf", "Figure 8: operation latency CDF at max concurrency");
    RunConfig defaults;
    defaults.threads = 8;
    defaults.pairs_per_thread = 10'000;
    defaults.runs = 1;
    defaults.placement = topo::Placement::kSingleCluster;
    add_common_flags(cli, defaults);
    cli.flag("mode", "both", "both | single (fig 8a) | multi (fig 8b)");
    cli.flag("sample-every", "8", "record every k-th operation's latency");
    cli.flag("queues", "", "comma names override");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;

    const RunConfig base_cfg = config_from_cli(cli);
    const QueueOptions qopt = queue_options_from_cli(cli);
    const std::string mode = cli.get("mode");
    JsonReport report("fig8_latency_cdf");
    report.set_config(base_cfg);

    for (const bool multi : {false, true}) {
        if ((mode == "single" && multi) || (mode == "multi" && !multi)) continue;
        RunConfig cfg = base_cfg;
        cfg.latency_sample_every =
            static_cast<std::uint64_t>(cli.get_int("sample-every"));
        std::vector<std::string> queues =
            multi ? std::vector<std::string>{"lcrq-h", "lcrq", "h-queue", "cc-queue"}
                  : std::vector<std::string>{"lcrq", "cc-queue", "fc-queue", "ms"};
        if (const auto names = split_names(cli.get("queues")); !names.empty()) {
            queues = names;
        }
        if (multi) {
            cfg.placement = topo::Placement::kRoundRobin;
            if (cfg.clusters == 0) cfg.clusters = 4;
        }

        print_banner(multi ? "Figure 8b: latency CDF, max concurrency, four clusters"
                           : "Figure 8a: latency CDF, max concurrency, one cluster",
                     "LCRQ(+H) latency is front-loaded; combining ops pay combiner "
                     "service/wait time (e.g. 80% of LCRQ+H ops <= 0.5us vs 30% for "
                     "H-Queue)",
                     cfg);

    // Collect a merged histogram per queue, then print the CDF at the
    // paper's probe points plus percentiles.
    std::vector<LatencyHistogram> hists;
    for (const auto& name : queues) {
        const RunResult r = run_pairs(name, qopt, cfg);
        hists.push_back(r.latency);
        report.add_result(result_json(name, cfg, r)
                              .set("mode", multi ? "multi" : "single")
                              .set("latency_kind", "service_time_closed_loop"));
        std::printf("%-10s mean service time %.2fus  samples %llu\n", name.c_str(),
                    r.latency.mean() / 1e3,
                    static_cast<unsigned long long>(r.latency.total()));
    }
    std::printf("Closed-loop measurement: timestamps start when the operation "
                "starts, so these are service times — queueing delay under "
                "overload is excluded (coordinated omission).  For end-to-end "
                "latency from intended arrival, see perfbench's dispatch "
                "workload (python3 perfbench/run.py --workload dispatch).\n\n");

    const std::uint64_t probes_ns[] = {100,    240,    500,     1'000,    2'000,
                                       5'000,  10'000, 25'000,  100'000,  1'000'000};
    std::vector<std::string> header = {"latency<="};
    for (const auto& q : queues) header.push_back(q + " %ops");
    Table table(header);
    for (std::uint64_t ns : probes_ns) {
        auto row = table.row();
        if (ns < 1'000) {
            row.cell(std::to_string(ns) + "ns");
        } else {
            row.cell(format_double(static_cast<double>(ns) / 1e3, 1) + "us");
        }
        for (const auto& h : hists) row.cell(100.0 * h.cdf_at(ns), 1);
    }
    if (cli.get_bool("csv")) {
        table.print_csv();
    } else {
        table.print();
    }

    Table pct({"queue", "svc p50 us", "svc p90 us", "svc p99 us", "svc p999 us"});
    for (std::size_t i = 0; i < queues.size(); ++i) {
        pct.row()
            .cell(queues[i])
            .cell(static_cast<double>(hists[i].percentile(0.50)) / 1e3, 2)
            .cell(static_cast<double>(hists[i].percentile(0.90)) / 1e3, 2)
            .cell(static_cast<double>(hists[i].percentile(0.99)) / 1e3, 2)
            .cell(static_cast<double>(hists[i].percentile(0.999)) / 1e3, 2);
    }
    std::printf("\n");
    pct.print();
    std::printf("\n");
    }
    return report.write_if_requested(cli) ? 0 : 1;
}
