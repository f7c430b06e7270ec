#include "bench_framework/json_report.hpp"

#include <cstdio>
#include <thread>

#include "topology/topology.hpp"

namespace lcrq::bench {

namespace {

// Ratio that serializes as null (not 0, not inf) on a zero denominator:
// a reader must be able to tell "no data" from "zero cost".
Json ratio(double num, double den) {
    if (den <= 0) return Json();
    return Json(num / den);
}

Json host_json() {
    const topo::Topology t = topo::discover();
    return Json::object()
        .set("description", topo::describe(t))
        .set("cpus", static_cast<std::uint64_t>(t.num_cpus()))
        .set("clusters", t.num_clusters)
        .set("hw_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

Json config_json(const RunConfig& cfg) {
    return Json::object()
        .set("threads", cfg.threads)
        .set("pairs_per_thread", cfg.pairs_per_thread)
        .set("workload", workload_name(cfg.workload))
        .set("producers", cfg.workload == Workload::kProducerConsumer
                              ? Json(static_cast<std::int64_t>(effective_producers(cfg)))
                              : Json())
        .set("runs", cfg.runs)
        .set("placement", topo::placement_name(cfg.placement))
        .set("clusters", cfg.clusters)
        .set("max_delay_ns", cfg.max_delay_ns)
        .set("prefill", cfg.prefill)
        .set("latency_sample_every", cfg.latency_sample_every)
        .set("rng_seed", cfg.rng_seed);
}

Json throughput_json(const RunningStats& s) {
    if (s.count() == 0) {
        // No completed run: all-null block rather than fake zeros.
        return Json::object()
            .set("mean_ops_per_sec", Json())
            .set("cv", Json())
            .set("min", Json())
            .set("max", Json())
            .set("runs", std::uint64_t{0});
    }
    return Json::object()
        .set("mean_ops_per_sec", s.mean())
        .set("cv", s.cv())
        .set("min", s.min())
        .set("max", s.max())
        .set("runs", s.count());
}

Json counters_json(const stats::Snapshot& delta) {
    Json counts = Json::object();
    for (std::size_t i = 0; i < stats::kEventCount; ++i) {
        counts.set(stats::event_name(static_cast<stats::Event>(i)), delta.counts[i]);
    }
    const auto ops = static_cast<double>(delta.operations());
    const auto cas = static_cast<double>(delta[stats::Event::kCas]);
    const auto cas2 = static_cast<double>(delta[stats::Event::kCas2]);
    Json derived =
        Json::object()
            .set("atomics_per_op", ratio(static_cast<double>(delta.atomic_ops()), ops))
            .set("faa_per_op",
                 ratio(static_cast<double>(delta[stats::Event::kFaa]), ops))
            .set("cas_fails_per_op",
                 ratio(static_cast<double>(delta[stats::Event::kCasFailure] +
                                           delta[stats::Event::kCas2Failure]),
                       ops))
            .set("cas_failure_rate",
                 ratio(static_cast<double>(delta[stats::Event::kCasFailure]), cas))
            .set("cas2_failure_rate",
                 ratio(static_cast<double>(delta[stats::Event::kCas2Failure]), cas2))
            // Fraction of ring segments served from the pool rather than
            // the allocator; null when no segment was ever needed (non-list
            // queues, or runs with no ring close).
            .set("segment_reuse_rate",
                 ratio(static_cast<double>(delta[stats::Event::kSegmentReuse]),
                       static_cast<double>(delta[stats::Event::kSegmentAlloc] +
                                           delta[stats::Event::kSegmentReuse])))
            // Fraction of successful multilane dequeues served by stealing
            // from another thread's lane; null for non-multilane queues.
            // A balance regression shows up here before it shows up in
            // throughput.
            .set("lane_steal_rate",
                 ratio(static_cast<double>(delta[stats::Event::kLaneSteal]),
                       static_cast<double>(delta[stats::Event::kLaneLocalHit] +
                                           delta[stats::Event::kLaneSteal])))
            // Fraction of pool pops served by the popper's home shard;
            // null for non-pooled queues (or runs with no ring close).
            // Low values under a cluster-spread workload mean poppers are
            // crossing clusters for segments — NUMA locality is broken.
            .set("segment_local_pop_rate",
                 ratio(static_cast<double>(delta[stats::Event::kSegmentPopLocal]),
                       static_cast<double>(delta[stats::Event::kSegmentPopLocal] +
                                           delta[stats::Event::kSegmentPopRemote])))
            // Fraction of hierarchical enters that expired their timeout
            // and claimed the cluster tag (§4.1.1); null for queues without
            // the hierarchy policy.  Low = batching works (most enters find
            // their own cluster or receive a handover).
            .set("cluster_handoff_rate",
                 ratio(static_cast<double>(delta[stats::Event::kClusterHandoff]),
                       static_cast<double>(delta[stats::Event::kClusterEnter])));
    return Json::object().set("counts", std::move(counts)).set("derived",
                                                               std::move(derived));
}

Json latency_json(const LatencyHistogram& h) {
    const auto pct = [&](double q) {
        return h.total() == 0 ? Json() : Json(h.percentile(q));
    };
    return Json::object()
        .set("samples", h.total())
        .set("mean_ns", h.total() == 0 ? Json() : Json(h.mean()))
        .set("p50_ns", pct(0.50))
        .set("p90_ns", pct(0.90))
        .set("p99_ns", pct(0.99))
        .set("p999_ns", pct(0.999))
        .set("max_ns", h.total() == 0 ? Json() : Json(h.max()));
}

}  // namespace

Json hw_json(const HwCounts& hw, std::uint64_t total_ops) {
    const auto ops = static_cast<double>(total_ops);
    const auto per_op = [&](HwEvent e) {
        const auto v = hw.get(e);
        return v.has_value() ? ratio(static_cast<double>(*v), ops) : Json();
    };
    Json out = Json::object()
                   .set("instructions_per_op", per_op(HwEvent::kInstructions))
                   .set("l1d_miss_per_op", per_op(HwEvent::kL1DMisses))
                   .set("llc_miss_per_op", per_op(HwEvent::kLLCMisses))
                   .set("dtlb_miss_per_op", per_op(HwEvent::kDTLBMisses));
    // Per-event denial reasons, so an n/a rate in the artifact names its
    // cause (perf_event_paranoid, seccomp, ...) instead of leaving the
    // reader to guess which layer dropped the data.
    Json unavailable = Json::object();
    bool any_missing = false;
    for (std::size_t i = 0; i < kHwEventCount; ++i) {
        if (hw.valid[i]) continue;
        any_missing = true;
        unavailable.set(hw_event_name(static_cast<HwEvent>(i)),
                        hw.reason[i].empty() ? Json() : Json(hw.reason[i]));
    }
    if (any_missing) out.set("unavailable", std::move(unavailable));
    return out;
}

Json result_json(const std::string& queue, const RunConfig& cfg, const RunResult& r) {
    Json entry = Json::object()
                     .set("queue", queue)
                     .set("workload", workload_name(cfg.workload))
                     .set("threads", cfg.threads)
                     .set("throughput", throughput_json(r.throughput))
                     // ns_per_op is NaN for failed runs; Json normalizes
                     // that to null (the schema's "no data").
                     .set("ns_per_op", r.ns_per_op(cfg.threads))
                     .set("total_ops", r.total_ops)
                     .set("empty_dequeues", r.empty_dequeues)
                     .set("counters", counters_json(r.events));
    if (cfg.measure_hw) entry.set("hw", hw_json(r.hw, r.total_ops));
    if (r.latency.total() != 0) entry.set("latency", latency_json(r.latency));
    return entry;
}

JsonReport::JsonReport(std::string bench_id) : bench_id_(std::move(bench_id)) {}

void JsonReport::set_config(const RunConfig& cfg) { config_ = config_json(cfg); }

void JsonReport::set_extra(std::string_view key, Json value) {
    extras_.set(key, std::move(value));
}

void JsonReport::add_result(Json entry) { results_.push_back(std::move(entry)); }

Json JsonReport::document() const {
    Json doc = Json::object()
                   .set("schema_version", kBenchSchemaVersion)
                   .set("bench", bench_id_)
                   .set("host", host_json());
    if (!config_.is_null()) doc.set("config", config_);
    for (const auto& [k, v] : extras_.members()) doc.set(k, v);
    doc.set("results", results_);
    return doc;
}

bool JsonReport::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "json report: cannot open %s for writing\n", path.c_str());
        return false;
    }
    const std::string text = document().dump(2) + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s (%zu results)\n", path.c_str(), results_.size());
    return ok;
}

bool JsonReport::write_if_requested(const Cli& cli) const {
    const std::string path = cli.get("json");
    if (path.empty()) return true;
    return write(path);
}

}  // namespace lcrq::bench
