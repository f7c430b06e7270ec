// Report helpers shared by the per-figure bench binaries: a standard
// banner (experiment id, host topology, config, paper expectation),
// uniform row formatting, and the common CLI flags — so every bench binary
// reads alike and bench_output.txt reads like the paper's evaluation
// section.
#pragma once

#include <string>

#include "bench_framework/runner.hpp"
#include "util/cli.hpp"

namespace lcrq::bench {

// Register the flags every throughput bench shares (--threads, --pairs,
// --runs, --placement, --clusters, --delay-ns, --prefill, --ring-order,
// --csv, --json).  Defaults are laptop-scale; pass paper-scale values to
// reproduce the original setup.  --json makes the binary also emit its
// results as a machine-readable report (bench_framework/json_report.hpp).
void add_common_flags(Cli& cli, const RunConfig& defaults, unsigned ring_order = 12);

// Extract a RunConfig / QueueOptions from parsed common flags.
RunConfig config_from_cli(const Cli& cli);
QueueOptions queue_options_from_cli(const Cli& cli);

// Print the experiment banner: what the paper shows, what this host is,
// and how the run is configured.
void print_banner(const std::string& experiment_id, const std::string& paper_claim,
                  const RunConfig& cfg);

std::string throughput_cell(const RunResult& r);  // "12.34 Mops/s (cv 2%)"

// Hardware-event cell of the per-op tables (Tables 2/3): the per-op rate
// when the event counted, else "n/a (<why>)" so the hole names its cause
// (perf_event_paranoid, seccomp, ...) instead of leaving the reader to
// guess which events the kernel refused.
std::string hw_cell(const HwCounts& hw, double ops, HwEvent e, int precision = 2);

// One line saying the hardware PMU rows are n/a on this host, and why;
// prints nothing where any event can be counted.
void print_pmu_note();

// "a,b,c" -> {"a","b","c"}; empty string -> empty vector.
std::vector<std::string> split_names(const std::string& csv);

}  // namespace lcrq::bench
