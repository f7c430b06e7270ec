// perfbench: the repository benchmark.  See perfbench/README.md for the
// workloads, the metrics and the layer each metric attributes.
//
//   perfbench --workload pairs|backlog|dispatch --seed N --seconds S
//             [--trace 0|1] [--inject dup|lose|reorder] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics of one workload; --trace 1 runs
// the traced replay and the layer ladder for the per-layer metrics.  The
// last line of standard output is the result as one JSON object.  The exit
// code is 1 when the output check found a refused, lost, duplicated or
// reordered item, 2 on bad arguments.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPairsCycles = 8;      // rounds per backend
constexpr int kDispatchCycles = 8;   // rounds per backend
constexpr std::uint64_t kBacklogQuota = std::uint64_t{1} << 18;
// Round validity: a round run while the hypervisor stole more than this
// share of the host, or (dispatch) whose generator ran later than this on
// average, measures the host rather than the queue; it is recorded but left
// out of the medians, and replaced while the time budget allows.
constexpr double kMaxStealFrac = 0.10;
constexpr double kMaxGenLagUs = 20.0;
// The backend whose rounds give the latency and CPU metrics.  Per-backend
// latencies differ by up to 2x (dispatch over lscq/lwcq polls a slower
// empty path), so pooling the backends would put the median on a cluster
// edge; the other backends are covered by their throughput metric.
const std::string kLatencyBackend = "lcrq";

struct RoundSummary {
    std::string backend;
    bool valid = true;
    double setup_s = 0;
    double rss_mb = 0;
    double mops = 0;
    double steal = 0;
    double lag_mean_us = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t served = 0;  // completed operations, or requests (dispatch)
    double p50_us = 0;
    double p90_us = 0;
    std::uint64_t samples = 0;
};

RoundSummary run_round(const Args& a, const std::string& backend, std::uint64_t seed,
                       std::uint64_t round_ns, CheckResult& check) {
    RoundSummary s;
    s.backend = backend;
    reset_peak_rss();
    RoundStats rs;
    if (a.workload == "pairs") {
        rs = pairs_round([&] { return lcrq::make_queue(backend, ring_options(kPairsRingOrder)); },
                         PairsConfig{4, round_ns, seed, a.fault, false});
        s.served = rs.ops;
    } else if (a.workload == "backlog") {
        BacklogConfig cfg;
        cfg.quota = kBacklogQuota;
        cfg.seed = seed;
        cfg.fault = a.fault;
        rs = backlog_round([&] { return lcrq::make_queue(backend, ring_options(kBacklogRingOrder)); },
                           cfg);
        s.served = rs.ops;
    } else {
        DispatchConfig cfg;
        cfg.backend = backend;
        cfg.window_ns = round_ns;
        cfg.seed = seed;
        cfg.fault = a.fault;
        DispatchStats ds = dispatch_round(cfg);
        s.served = ds.completed;
        s.lag_mean_us = ticks_to_us(ds.lag.mean());
        rs = std::move(ds.round);
    }
    s.rss_mb = peak_rss_mb();
    check += rs.check;
    s.setup_s = rs.setup_s;
    s.mops = rs.mops();
    s.steal = rs.steal;
    s.cpu_ns = rs.cpu_ns;
    s.p50_us = ticks_to_us(quantile(rs.lat, 0.50));
    s.p90_us = ticks_to_us(quantile(rs.lat, 0.90));
    s.samples = rs.lat.total();
    s.valid = rs.steal <= kMaxStealFrac && s.lag_mean_us <= kMaxGenLagUs;
    return s;
}

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1") return false;
                a.trace = v == "1";
            } else if (k == "--inject") {
                if (v == "dup") {
                    a.fault = Fault::kDuplicate;
                } else if (v == "lose") {
                    a.fault = Fault::kLose;
                } else if (v == "reorder") {
                    a.fault = Fault::kReorder;
                } else {
                    return false;
                }
            } else if (k == "--out-dir") {
                a.out_dir = v;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    const bool known =
        a.workload == "pairs" || a.workload == "backlog" || a.workload == "dispatch";
    return known && a.seconds > 0 && a.seconds <= 600;
}

}  // namespace

lcrq::Json host_json(double steal) {
    utsname u{};
    uname(&u);
    return lcrq::Json::object()
        .set("nproc", static_cast<std::uint64_t>(online_cpus()))
        .set("machine", std::string(u.machine))
        .set("tsc_per_ns", lcrq::tsc_per_ns())
        .set("steal_frac", steal)
        .set("valid_nproc", online_cpus() >= 4);
}

void run_workload(const Args& a, Report& rep) {
    // Lazy set-up before any clock: the TSC calibration is a ~10 ms
    // busy-wait on first use, paid once per process and charged to setup_s.
    const std::uint64_t c0 = lcrq::now_ns();
    (void)lcrq::tsc_per_ns();
    const double once_s = static_cast<double>(lcrq::now_ns() - c0) / 1e9;
    const CpuTimes cpu0 = read_cpu_times();

    const auto budget_ns = static_cast<std::uint64_t>(a.seconds * 1e9);
    const bool backlog = a.workload == "backlog";
    const int planned = a.workload == "pairs" ? kPairsCycles : kDispatchCycles;
    // A cycle runs each backend once.  Dispatch gives lcrq, whose rounds
    // carry the latency metrics, three fifths of it.
    const std::uint64_t cycle_ns = budget_ns / static_cast<std::uint64_t>(planned);
    auto round_ns = [&](const std::string& b) {
        if (a.workload != "dispatch") return cycle_ns / kBackends.size();
        return b == kLatencyBackend ? cycle_ns * 3 / 5 : cycle_ns / 5;
    };

    // One short warm-up round per backend, checked but not measured: the
    // process's first round runs ~10% slow (fresh thread stacks and heap
    // arenas, cold page tables) and would skew every backend's median.
    for (std::size_t b = 0; b < kBackends.size(); ++b) {
        run_round(a, kBackends[b], a.seed * 1000 + 900 + b, round_ns(kBackends[b]) / 4, rep.check);
    }

    const std::uint64_t t_begin = lcrq::now_ns();
    std::vector<RoundSummary> rounds;
    std::map<std::string, int> valid;
    for (int cycle = 0;; ++cycle) {
        const double el = static_cast<double>(lcrq::now_ns() - t_begin) / 1e9;
        const bool planned_done = backlog ? (cycle >= 1 && el >= a.seconds) : cycle >= planned;
        if (planned_done) {
            const bool short_of_valid = std::any_of(kBackends.begin(), kBackends.end(),
                [&](const std::string& b) { return valid[b] < std::max(1, cycle / 2); });
            if (!short_of_valid || el >= 1.25 * a.seconds) break;
        }
        for (std::size_t b = 0; b < kBackends.size(); ++b) {
            const std::uint64_t seed = a.seed * 1000 + static_cast<std::uint64_t>(cycle) * 10 + b;
            rounds.push_back(run_round(a, kBackends[b], seed, round_ns(kBackends[b]), rep.check));
            if (rounds.back().valid) ++valid[kBackends[b]];
        }
    }

    // A backend with no valid round falls back to all of its rounds; the
    // record says so.
    std::vector<double> setups, p50s, p90s;
    std::uint64_t cpu_ns = 0, served = 0, samples = 0;
    lcrq::Json per_round = lcrq::Json::array();
    std::map<std::string, std::vector<double>> mops, rss;
    for (const RoundSummary& r : rounds) {
        per_round.push_back(lcrq::Json::object()
                                .set("backend", r.backend)
                                .set("valid", r.valid)
                                .set("setup_s", r.setup_s)
                                .set("peak_rss_mb", r.rss_mb)
                                .set("mops", r.mops)
                                .set("steal_frac", r.steal)
                                .set("gen_lag_mean_us", r.lag_mean_us)
                                .set("p50_us", r.p50_us)
                                .set("p90_us", r.p90_us)
                                .set("samples", r.samples));
        if (!r.valid && valid[r.backend] > 0) continue;
        setups.push_back(r.setup_s);
        rss[r.backend].push_back(r.rss_mb);
        mops[r.backend].push_back(r.mops);
        if (r.backend != kLatencyBackend) continue;
        p50s.push_back(r.p50_us);
        p90s.push_back(r.p90_us);
        samples += r.samples;
        cpu_ns += r.cpu_ns;
        served += r.served;
    }

    rep.add("setup_s", once_s + median(setups), "s");
    // The process peak is the hungriest backend's; each backend's figure is
    // the median of its rounds' own peaks.
    double peak = 0;
    for (const auto& [b, v] : rss) peak = std::max(peak, median(v));
    rep.add("peak_rss_mb", peak, "MiB");
    for (const std::string& b : kBackends) rep.add("throughput_mops." + b, median(mops[b]), "Mops/s");
    rep.add("e2e_p50_us", median(p50s), "us");
    rep.add("e2e_p90_us", median(p90s), "us");
    rep.add("worker_cpu_us_per_req",
            served > 0 ? static_cast<double>(cpu_ns) / 1e3 / static_cast<double>(served) : 0,
            "us");

    int invalid = 0;
    double worst_lag_us = 0;
    for (const RoundSummary& r : rounds) {
        invalid += r.valid ? 0 : 1;
        worst_lag_us = std::max(worst_lag_us, r.lag_mean_us);
    }
    const double steal = steal_frac(cpu0, read_cpu_times());
    std::printf("host: nproc=%u steal_frac=%.4f rounds=%zu invalid=%d worst_gen_lag_mean_us=%.2f\n",
                online_cpus(), steal, rounds.size(), invalid, worst_lag_us);
    rep.record.set("rounds", per_round)
        .set("invalid_rounds", invalid)
        .set("latency_samples", samples)
        .set("once_setup_s", once_s)
        .set("host", host_json(steal));
}

int Report::finish(const Args& a) {
    const double failed_frac =
        check.attempted > 0 ? static_cast<double>(check.failed()) / static_cast<double>(check.attempted)
                            : 0.0;
    lcrq::Json metrics = lcrq::Json::object();
    lcrq::Json nulls = lcrq::Json::object();
    for (const Row& r : rows_) {
        if (r.value) {
            std::printf("%-40s %.6g %s\n", r.name.c_str(), *r.value, r.unit.c_str());
        } else {
            std::printf("%-40s null %s (%s)\n", r.name.c_str(), r.unit.c_str(), r.why.c_str());
            nulls.set(r.name, r.why);
        }
        metrics.set(r.name, lcrq::Json::object()
                                .set("value", r.value ? lcrq::Json(*r.value) : lcrq::Json())
                                .set("unit", r.unit));
    }
    std::printf("%-40s %.6g fraction  (refused %llu, lost %llu, duplicated %llu, "
                "reordered %llu of %llu items)\n",
                "failed_frac", failed_frac, static_cast<unsigned long long>(check.refused),
                static_cast<unsigned long long>(check.lost),
                static_cast<unsigned long long>(check.duplicated),
                static_cast<unsigned long long>(check.reordered),
                static_cast<unsigned long long>(check.attempted));

    record.set("workload", a.workload)
        .set("seed", a.seed)
        .set("seconds", a.seconds)
        .set("trace", a.trace)
        .set("failed_frac", failed_frac)
        .set("metrics", metrics)
        .set("nulls", nulls);
    std::error_code ec;
    std::filesystem::create_directories(a.out_dir, ec);
    const std::string path = a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                             "-trace" + (a.trace ? "1" : "0") + ".json";
    std::ofstream(path) << record.dump(1) << "\n";
    std::printf("record: %s\n", path.c_str());

    const bool correct = check.failed() == 0;
    const lcrq::Json result = lcrq::Json::object()
                                  .set("correct", correct)
                                  .set("attempted", std::max<std::uint64_t>(check.attempted, 1))
                                  .set("failed", check.failed())
                                  .set("metrics", metrics);
    std::printf("%s\n", result.dump(0).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload pairs|backlog|dispatch --seed N --seconds S "
                     "[--trace 0|1] [--inject dup|lose|reorder] [--out-dir DIR]\n");
        return 2;
    }
    perfbench::Report report;
    if (args.trace) {
        perfbench::run_traced(args, report);
    } else {
        perfbench::run_workload(args, report);
    }
    return report.finish(args);
}
