// Machine-readable benchmark reports.
//
// Every figure and table binary can serialize its runs as a versioned JSON
// document (the shared --json flag).  One schema for all binaries: host
// topology, the RunConfig, and per-configuration result entries carrying
// throughput (with its run-to-run cv), the software-counter delta with
// derived atomics/op and CAS-failure rates, and latency percentiles.  See
// EXPERIMENTS.md ("Machine-readable output") for the schema reference.
#pragma once

#include <string>

#include "bench_framework/runner.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace lcrq::bench {

// Bump on any backwards-incompatible field change, so a reader can refuse
// documents of a version it does not know.
inline constexpr int kBenchSchemaVersion = 1;

// --- building blocks --------------------------------------------------------

// {"instructions_per_op", "l1d_miss_per_op", "llc_miss_per_op",
//  "dtlb_miss_per_op"} — per-operation hardware-event rates, null for
// events the kernel refused (with an "unavailable" map naming each
// refused event's reason).  Emitted in result_json only when the run
// measured hardware counters.
Json hw_json(const HwCounts& hw, std::uint64_t total_ops);

// One results[] entry for a pairs-runner result: queue/workload/threads
// key fields plus throughput, ns_per_op (null for failed runs), counters,
// and — when sampled — latency.
Json result_json(const std::string& queue, const RunConfig& cfg, const RunResult& r);

// --- report document --------------------------------------------------------

class JsonReport {
  public:
    // `bench_id` names the producing experiment, e.g. "fig6a".
    explicit JsonReport(std::string bench_id);

    // Record the sweep's base configuration (optional; once).
    void set_config(const RunConfig& cfg);
    // Bench-specific top-level fields (e.g. the swept batch sizes).
    void set_extra(std::string_view key, Json value);
    void add_result(Json entry);

    Json document() const;
    // Serialize to `path`; returns false (with a message on stderr) if the
    // file cannot be written.
    bool write(const std::string& path) const;
    // Honor the shared --json flag: writes when the flag is non-empty,
    // silently succeeds otherwise.
    bool write_if_requested(const Cli& cli) const;

  private:
    std::string bench_id_;
    Json config_;  // null until set_config
    Json extras_ = Json::object();
    Json results_ = Json::array();
};

}  // namespace lcrq::bench
