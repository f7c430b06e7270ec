// The traced run: per-layer metrics.
//
// Layer ladder.  The pairs loop runs at t=1 and t=4 up a stack of rungs,
// each adding one layer to the one below:
//   harness   the loop, pause and output check around a thread-local slot
//   ring      Crq / Scq / Wcq used directly            (module ring)
//   noreclaim the list queue without hazard pointers   (module list)
//   list      the list queue                           (module hazard)
//   registry  make_queue's AnyQueue                    (module registry)
//   facade    BlockingQueue try_enqueue/try_dequeue    (module facade)
// A layer's self time is its rung minus the rung below, in ns per
// operation per thread.
//
// Then the workloads are replayed with spans around the calls into each
// layer's public functions (from this file only; nothing inside the
// library is instrumented), counters are read as stats::global_snapshot()
// deltas, and each replay is compared with an untraced one to price the
// tracing.
#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "queues/blocking_queue.hpp"
#include "queues/crq.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/scq.hpp"
#include "queues/wcq.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lcrq::stats::Event;
using Facade = lcrq::BlockingQueue<lcrq::UniquePtrBase<lcrq::AnyQueue>>;

constexpr int kLadderReps = 5;
constexpr int kBacklogReps = 5;
constexpr std::uint64_t kTracedBacklogQuota = std::uint64_t{1} << 17;
constexpr int kCheckpoints = 8;
constexpr double kDeadlineUs = 2000;

// Bottom rung: the pairs loop with its pause and output check, around a
// one-item thread-local slot instead of a queue.
class HarnessOnly {
  public:
    bool try_enqueue(value_t v) {
        slot() = v;
        return true;
    }
    std::optional<value_t> dequeue() {
        value_t& s = slot();
        if (s == lcrq::kBottom) return std::nullopt;
        return std::exchange(s, lcrq::kBottom);
    }

  private:
    static value_t& slot() {
        thread_local value_t s = lcrq::kBottom;
        return s;
    }
};

using CellFn = std::function<std::optional<double>(int threads, std::uint64_t ns,
                                                   std::uint64_t seed)>;

// One ladder cell: ns per operation per thread.  A raw CRQ may close itself
// (starvation) and then accepts nothing more; such a cell is run again on a
// fresh ring, and reported unmeasured if that closes too.
template <class Make>
CellFn cell(Make make, CheckResult& check) {
    return [make, &check](int threads, std::uint64_t ns,
                          std::uint64_t seed) -> std::optional<double> {
        for (std::uint64_t attempt = 0; attempt < 2; ++attempt) {
            RoundStats rs =
                pairs_round(make, PairsConfig{threads, ns, seed + attempt, Fault::kNone, false});
            if (rs.aborted) continue;
            check += rs.check;
            return rs.ns_per_op_thread(threads);
        }
        return std::nullopt;
    };
}

struct Rung {
    std::string name;
    std::string backend;
    CellFn run;
};

std::vector<Rung> ladder_rungs(CheckResult& check) {
    const lcrq::QueueOptions o = ring_options(kPairsRingOrder);
    const lcrq::WcqConfig wcfg{o.wcq_patience, o.wcq_helping};
    return {
        {"harness", "-", cell([] { return std::make_unique<HarnessOnly>(); }, check)},
        {"ring", "lcrq", cell([o] { return std::make_unique<lcrq::Crq<>>(o); }, check)},
        {"ring", "lscq", cell([] { return std::make_unique<lcrq::Scq<>>(kPairsRingOrder); }, check)},
        {"ring", "lwcq", cell([wcfg] {
             return std::make_unique<lcrq::Wcq<>>(kPairsRingOrder, std::nullopt, wcfg);
         }, check)},
        {"noreclaim", "lcrq",
         cell([o] { return std::make_unique<lcrq::LcrqNoReclaimQueue>(o); }, check)},
        {"noreclaim", "lscq",
         cell([o] { return std::make_unique<lcrq::LscqNoReclaimQueue>(o); }, check)},
        {"noreclaim", "lwcq",
         cell([o] { return std::make_unique<lcrq::LwcqNoReclaimQueue>(o); }, check)},
        {"list", "lcrq", cell([o] { return std::make_unique<lcrq::LcrqQueue>(o); }, check)},
        {"list", "lscq", cell([o] { return std::make_unique<lcrq::LscqQueue>(o); }, check)},
        {"list", "lwcq", cell([o] { return std::make_unique<lcrq::LwcqQueue>(o); }, check)},
        {"registry", "lcrq", cell([o] { return lcrq::make_queue("lcrq", o); }, check)},
        {"registry", "lscq", cell([o] { return lcrq::make_queue("lscq", o); }, check)},
        {"registry", "lwcq", cell([o] { return lcrq::make_queue("lwcq", o); }, check)},
        {"facade", "lcrq", cell([o] {
             return std::make_unique<Facade>(
                 lcrq::UniquePtrBase<lcrq::AnyQueue>(lcrq::make_queue("lcrq", o)), 0);
         }, check)},
    };
}

double per_k(std::uint64_t n, std::uint64_t ops) {
    return ops > 0 ? 1e3 * static_cast<double>(n) / static_cast<double>(ops) : 0;
}
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

lcrq::Json spans_json(const SpanLog& log, std::size_t limit) {
    lcrq::Json out = lcrq::Json::array();
    const std::uint64_t base = log.kept().empty() ? 0 : log.kept().front().t0;
    for (const Span& s : log.kept()) {
        if (out.size() >= limit) break;
        out.push_back(lcrq::Json::object()
                          .set("name", span_name(s.kind))
                          .set("id", s.id)
                          .set("producer", static_cast<std::uint64_t>(producer_of(s.id)))
                          .set("seq", seq_of(s.id))
                          .set("start_ns", ticks_to_ns(static_cast<double>(s.t0) -
                                                       static_cast<double>(base)))
                          .set("dur_ns", ticks_to_ns(static_cast<double>(s.t1 - s.t0))));
    }
    return out;
}

// ---- ladder ----------------------------------------------------------------

void run_ladder(const Args& a, Report& rep, std::map<std::string, double>& registry_t4) {
    std::vector<Rung> rungs = ladder_rungs(rep.check);
    const std::vector<int> thread_counts = {1, 4};
    const auto cell_ns = static_cast<std::uint64_t>(
        1.5 * a.seconds * 1e9 /
        static_cast<double>(rungs.size() * thread_counts.size() * kLadderReps));
    std::map<std::string, std::vector<double>> samples;
    auto key = [](const std::string& rung, const std::string& b, int t) {
        return rung + "." + b + ".t" + std::to_string(t);
    };
    for (int rep_i = 0; rep_i < kLadderReps; ++rep_i) {
        for (int t : thread_counts) {
            for (const Rung& r : rungs) {
                const std::uint64_t seed = a.seed * 7919 + static_cast<std::uint64_t>(rep_i);
                if (auto v = r.run(t, cell_ns, seed)) samples[key(r.name, r.backend, t)].push_back(*v);
            }
        }
    }
    lcrq::Json table = lcrq::Json::object();
    auto rung = [&](const std::string& name, const std::string& b, int t) -> std::optional<double> {
        const auto it = samples.find(key(name, b, t));
        if (it == samples.end() || it->second.empty()) return std::nullopt;
        return median(it->second);
    };
    for (const auto& [k, v] : samples) table.set(k, median(v));
    rep.record.set("ladder_ns_per_op_thread", table).set("ladder_cell_s", static_cast<double>(cell_ns) / 1e9);

    auto delta = [&](const std::string& metric, const std::string& upper, const std::string& lower,
                     const std::string& b, const std::string& lower_b, int t) {
        const auto hi = rung(upper, b, t);
        const auto lo = rung(lower, lower_b, t);
        if (hi && lo) {
            rep.add(metric, *hi - *lo, "ns");
        } else {
            rep.unmeasured(metric, "ns", "raw CRQ ring closed itself in every attempt");
        }
    };
    for (int t : thread_counts) {
        const std::string ts = ".t" + std::to_string(t) + ".";
        for (const std::string& b : kBackends) {
            delta("ring.ns_per_op" + ts + b, "ring", "harness", b, "-", t);
            delta("list.ns_per_op" + ts + b, "noreclaim", "ring", b, b, t);
            delta("hazard.ns_per_op" + ts + b, "list", "noreclaim", b, b, t);
            delta("registry.ns_per_op" + ts + b, "registry", "list", b, b, t);
        }
        delta("facade.ns_per_op" + ts + "lcrq", "facade", "registry", "lcrq", "lcrq", t);
    }
    for (const std::string& b : kBackends) {
        if (auto v = rung("registry", b, 4)) registry_t4[b] = *v;
    }
}

// ---- pairs replay: counters and registry spans ---------------------------

void run_pairs_replay(const Args& a, Report& rep, const std::map<std::string, double>& untraced) {
    const auto ns = static_cast<std::uint64_t>(0.05 * a.seconds * 1e9);
    std::vector<double> overhead;
    lcrq::Json spans = lcrq::Json::object();
    for (const std::string& b : kBackends) {
        RoundStats rs = pairs_round(
            [&] { return std::make_unique<TracedAny>(lcrq::make_queue(b, ring_options(kPairsRingOrder))); },
            PairsConfig{4, ns, a.seed * 31 + 1, Fault::kNone, true});
        rep.check += rs.check;
        const auto& ev = rs.events;
        const std::uint64_t ops = rs.ops;
        rep.add("arch.atomics_per_op." + b, ratio(static_cast<double>(ev.atomic_ops()), static_cast<double>(ops)), "1/op");
        rep.add("arch.cas_fail_per_op." + b,
                ratio(static_cast<double>(ev[Event::kCasFailure] + ev[Event::kCas2Failure]),
                      static_cast<double>(ops)),
                "1/op");
        rep.add("ring.retry_per_kop." + b, per_k(ev[Event::kRingRetry], ops), "1/kop");
        if (b == "lwcq") {
            rep.add("ring.wcq_slow_path_per_kop", per_k(ev[Event::kWcqSlowPath], ops), "1/kop");
        }
        const auto it = untraced.find(b);
        if (it != untraced.end() && it->second > 0) {
            overhead.push_back(rs.ns_per_op_thread(4) / it->second - 1);
        }
        if (rs.spans) {
            spans.set(b, lcrq::Json::object()
                             .set("enqueue_p50_ns", ticks_to_ns(quantile(rs.spans->hist(SpanKind::kAnyEnqueue), 0.5)))
                             .set("dequeue_p50_ns", ticks_to_ns(quantile(rs.spans->hist(SpanKind::kAnyDequeue), 0.5)))
                             .set("sample", spans_json(*rs.spans, 64)));
        }
    }
    rep.record.set("pairs_spans", spans);
    rep.add("trace.overhead_frac.pairs", mean(overhead), "fraction");
}

// ---- backlog: list, hazard and segment pool ------------------------------

template <class Q>
void segment_probe(const Args& a, Report& rep, const std::string& b) {
    std::size_t segments = 0, retired = 0;
    BacklogConfig cfg;
    cfg.quota = kTracedBacklogQuota;
    cfg.seed = a.seed * 131 + 7;
    cfg.checkpoints = kCheckpoints;
    RoundStats rs = backlog_round([] { return std::make_unique<Q>(ring_options(kBacklogRingOrder)); }, cfg,
                                  [&](Q& q) {
                                      segments = std::max(segments, q.segment_count());
                                      retired = std::max(retired, q.hazard_domain().retired_count());
                                  });
    rep.check += rs.check;
    rep.add("list.segments_peak." + b, static_cast<double>(segments), "count");
    rep.add("hazard.retired_peak." + b, static_cast<double>(retired), "count");
}

void run_backlog_replay(const Args& a, Report& rep) {
    std::vector<double> overhead;
    lcrq::Json record = lcrq::Json::object();
    for (const std::string& b : kBackends) {
        BacklogConfig cfg;
        cfg.quota = kTracedBacklogQuota;
        std::vector<double> pooled, nopool;
        for (int r = 0; r < kBacklogReps; ++r) {
            cfg.seed = a.seed * 131 + static_cast<std::uint64_t>(r);
            RoundStats p = backlog_round([&] { return lcrq::make_queue(b, ring_options(kBacklogRingOrder)); }, cfg);
            RoundStats n = backlog_round(
                [&] { return lcrq::make_queue(b + "-nopool", ring_options(kBacklogRingOrder)); }, cfg);
            rep.check += p.check;
            rep.check += n.check;
            pooled.push_back(p.ns_per_op_thread(4));
            nopool.push_back(n.ns_per_op_thread(4));
        }
        rep.add("segment_pool.ns_per_op." + b, median(nopool) - median(pooled), "ns");

        cfg.traced = true;
        RoundStats t = backlog_round(
            [&] { return std::make_unique<TracedAny>(lcrq::make_queue(b, ring_options(kBacklogRingOrder))); },
            cfg);
        rep.check += t.check;
        const auto& ev = t.events;
        const SpanLog& spans = *t.spans;
        rep.add("list.enqueue_call_ns.p50." + b,
                ticks_to_ns(quantile(spans.hist(SpanKind::kAnyEnqueue), 0.5)), "ns");
        rep.add("list.enqueue_call_ns.p999." + b,
                ticks_to_ns(quantile(spans.hist(SpanKind::kAnyEnqueue), 0.999)), "ns");
        rep.add("list.append_per_kop." + b, per_k(ev[Event::kCrqAppend], t.ops), "1/kop");
        rep.add("list.close_per_kop." + b, per_k(ev[Event::kCrqClose], t.ops), "1/kop");
        const auto reused = static_cast<double>(ev[Event::kSegmentReuse]);
        const auto fresh = static_cast<double>(ev[Event::kSegmentAlloc]);
        rep.add("segment_pool.reuse_rate." + b, ratio(reused, reused + fresh), "fraction");
        overhead.push_back(t.ns_per_op_thread(4) / median(pooled) - 1);
        record.set(b, lcrq::Json::object()
                          .set("pooled_ns_per_op_thread", median(pooled))
                          .set("nopool_ns_per_op_thread", median(nopool))
                          .set("traced_ns_per_op_thread", t.ns_per_op_thread(4))
                          .set("enqueue_spans", spans.hist(SpanKind::kAnyEnqueue).total())
                          .set("sample", spans_json(spans, 64)));

        if (b == "lcrq") segment_probe<lcrq::LcrqQueue>(a, rep, b);
        if (b == "lscq") segment_probe<lcrq::LscqQueue>(a, rep, b);
        if (b == "lwcq") segment_probe<lcrq::LwcqQueue>(a, rep, b);
    }
    rep.add("trace.overhead_frac.backlog", mean(overhead), "fraction");
    rep.record.set("backlog", record);
}

// ---- dispatch: facade and generator --------------------------------------

void run_dispatch_replay(const Args& a, Report& rep) {
    DispatchConfig cfg;
    cfg.backend = "lcrq";
    cfg.window_ns = static_cast<std::uint64_t>(0.1 * a.seconds * 1e9);
    cfg.seed = a.seed * 17 + 3;
    DispatchStats plain = dispatch_round(cfg);
    cfg.traced = true;
    DispatchStats traced = dispatch_round(cfg);
    rep.check += plain.round.check;
    rep.check += traced.round.check;

    const SpanLog& spans = *traced.round.spans;
    const auto& ev = traced.round.events;
    const auto done = static_cast<double>(traced.completed);
    rep.add("facade.admit_ns.p50", ticks_to_ns(quantile(spans.hist(SpanKind::kAdmit), 0.5)), "ns");
    rep.add("facade.residence_us.p50", ticks_to_us(quantile(spans.hist(SpanKind::kResidence), 0.5)), "us");
    rep.add("facade.residence_us.p90", ticks_to_us(quantile(spans.hist(SpanKind::kResidence), 0.9)), "us");
    rep.add("facade.empty_polls_per_req", ratio(static_cast<double>(ev[Event::kDequeueEmpty]), done), "1/req");
    rep.add("facade.park_per_req", ratio(static_cast<double>(ev[Event::kBlockedDeq]), done), "1/req");
    rep.add("facade.useful_cpu_frac",
            ratio(ticks_to_ns(static_cast<double>(traced.service_ticks)),
                  static_cast<double>(traced.round.cpu_ns)),
            "fraction");
    rep.add("facade.shed_frac",
            ratio(static_cast<double>(ev[Event::kShed]), static_cast<double>(traced.offered)),
            "fraction");

    const lcrq::LatencyHistogram& e2e = plain.round.lat;
    rep.add("dispatch.gen_lag_us.p50", ticks_to_us(quantile(plain.lag, 0.5)), "us");
    rep.add("dispatch.gen_lag_us.p99", ticks_to_us(quantile(plain.lag, 0.99)), "us");
    rep.add("dispatch.e2e_us.p99", ticks_to_us(quantile(e2e, 0.99)), "us");
    rep.add("dispatch.e2e_us.p999", ticks_to_us(quantile(e2e, 0.999)), "us");
    rep.add("dispatch.samples", static_cast<double>(e2e.total()), "count");
    const auto deadline_ticks =
        static_cast<std::uint64_t>(kDeadlineUs * 1e3 * lcrq::tsc_per_ns());
    rep.add("dispatch.deadline_miss_frac", e2e.total() > 0 ? 1.0 - e2e.cdf_at(deadline_ticks) : 0,
            "fraction");
    rep.add("dispatch.span_gap_us.p50", ticks_to_us(traced.span_gap_p50_ticks), "us");
    const double p50_plain = quantile(e2e, 0.5);
    rep.add("trace.overhead_frac.dispatch",
            p50_plain > 0 ? quantile(traced.round.lat, 0.5) / p50_plain - 1 : 0, "fraction");
    rep.record.set("dispatch", lcrq::Json::object()
                                   .set("offered", plain.offered)
                                   .set("completed", plain.completed)
                                   .set("gen_lag_mean_us", ticks_to_us(plain.lag.mean()))
                                   .set("steal_frac", plain.round.steal)
                                   .set("sample", spans_json(spans, 256)));
}

}  // namespace

void run_traced(const Args& a, Report& rep) {
    (void)lcrq::tsc_per_ns();
    const CpuTimes cpu0 = read_cpu_times();
    std::map<std::string, double> registry_t4;
    run_ladder(a, rep, registry_t4);
    run_pairs_replay(a, rep, registry_t4);
    run_backlog_replay(a, rep);
    run_dispatch_replay(a, rep);
    const double steal = steal_frac(cpu0, read_cpu_times());
    rep.add("host.steal_frac", steal, "fraction");
    rep.record.set("host", host_json(steal));
}

}  // namespace perfbench
