#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "queues/blocking_queue.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Facade = lcrq::BlockingQueue<lcrq::UniquePtrBase<lcrq::AnyQueue>>;

// Large enough that a host stall backs the queue up without shedding.
constexpr std::size_t kCapacity = std::size_t{1} << 22;
constexpr std::size_t kGenerator = 0;  // producer id of scheduled requests
constexpr std::size_t kWarm = 1;       // producer id of warm-up items
constexpr int kWorkers = 2;

// Intended arrivals as tick offsets from the clock start: exponential gaps,
// so the offered load is a property of the seed, not of how fast the
// generator happens to run.
std::vector<std::uint64_t> poisson_schedule(double rate_mops, std::uint64_t window_ns,
                                            std::uint64_t seed) {
    const double per_ns = rate_mops * 1e6 / 1e9;
    std::vector<std::uint64_t> at;
    at.reserve(static_cast<std::size_t>(per_ns * static_cast<double>(window_ns) * 1.1) + 16);
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(per_ns);
    const double tpn = lcrq::tsc_per_ns();
    for (double t = gap(rng); t < static_cast<double>(window_ns); t += gap(rng)) {
        at.push_back(static_cast<std::uint64_t>(t * tpn));
    }
    return at;
}

// Per-request stamps of a traced round, each array written by one side
// only and read after the join.
struct RequestStamps {
    explicit RequestStamps(std::size_t n)
        : submit(n), admitted(n), dequeued(n), service0(n), service1(n) {}
    std::vector<std::uint64_t> submit, admitted;                // generator
    std::vector<std::uint64_t> dequeued, service0, service1;    // workers
};

}  // namespace

DispatchStats dispatch_round(const DispatchConfig& cfg) {
    DispatchStats ds;
    RoundStats& rs = ds.round;
    const CpuTimes cpu0 = read_cpu_times();
    const std::uint64_t s0 = lcrq::now_ns();
    lcrq::QueueOptions opt;
    Facade q(lcrq::UniquePtrBase<lcrq::AnyQueue>(lcrq::make_queue(cfg.backend, opt)),
             kCapacity);
    const std::vector<std::uint64_t> schedule =
        poisson_schedule(cfg.rate_mops, cfg.window_ns, cfg.seed);
    ds.offered = schedule.size();
    std::unique_ptr<RequestStamps> stamps;
    if (cfg.traced) stamps = std::make_unique<RequestStamps>(schedule.size() + 1);
    const auto service_ticks =
        static_cast<std::uint64_t>(static_cast<double>(cfg.service_ns) * lcrq::tsc_per_ns());

    detail::RoundState st(kWorkers + 1, 2, false);
    std::barrier gate(kWorkers + 1, [&]() noexcept { st.open_clock(s0, 0); });
    std::vector<std::uint64_t> service_sum(kWorkers, 0);
    std::vector<std::uint64_t> completed(kWorkers, 0);

    std::vector<std::thread> threads;
    threads.reserve(kWorkers + 1);
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            const auto wi = static_cast<std::size_t>(w);
            pin_to_cpu(static_cast<unsigned>(w) + 1);
            FaultPoint fault(w == 0 ? cfg.fault : Fault::kNone);
            Consumed& co = st.consumed[wi];
            detail::ThreadOut& out = st.out[wi];
            if (auto r = q.try_dequeue()) fault.deliver(co, *r);
            gate.arrive_and_wait();
            const std::uint64_t c0 = lcrq::thread_cpu_ns();
            for (;;) {
                const lcrq::WaitResult r = q.wait_dequeue_for(1'000'000);
                if (r.closed()) break;
                if (!r.ok()) continue;
                const std::uint64_t deq = lcrq::rdtsc();
                fault.deliver(co, r.value);
                if (producer_of(r.value) != kGenerator) continue;
                const std::uint64_t seq = seq_of(r.value);
                const std::uint64_t sv0 = lcrq::rdtsc();
                while (lcrq::rdtsc() - sv0 < service_ticks) {
                }
                const std::uint64_t sv1 = lcrq::rdtsc();
                const std::uint64_t intended = st.t0 + schedule[seq - 1];
                out.lat.record(sv1 > intended ? sv1 - intended : 0);
                service_sum[wi] += sv1 - sv0;
                ++completed[wi];
                if (stamps) {
                    stamps->dequeued[seq] = deq;
                    stamps->service0[seq] = sv0;
                    stamps->service1[seq] = sv1;
                }
            }
            out.end_ticks = lcrq::rdtsc();
            out.cpu_ns = lcrq::thread_cpu_ns() - c0;
            fault.flush(co);
        });
    }
    threads.emplace_back([&] {
        pin_to_cpu(0);
        FaultPoint fault(cfg.fault);
        Produced& pr = st.produced[kGenerator];
        for (std::uint64_t s = 1; s <= 2; ++s) {
            const value_t v = encode(kWarm, s);
            if (q.try_enqueue(v)) {
                st.produced[kWarm].note(v);
            } else {
                ++st.produced[kWarm].refused;
            }
        }
        gate.arrive_and_wait();
        const double tpn = lcrq::tsc_per_ns();
        constexpr std::uint64_t kSpinTailNs = 50'000;
        for (std::uint64_t seq = 1; seq <= schedule.size(); ++seq) {
            const std::uint64_t intended = st.t0 + schedule[seq - 1];
            std::uint64_t now = lcrq::rdtsc();
            // Sleep off long gaps, spin the last stretch for precision.
            if (now < intended &&
                static_cast<double>(intended - now) > static_cast<double>(kSpinTailNs) * tpn) {
                const auto ns = static_cast<std::uint64_t>(
                    static_cast<double>(intended - now) / tpn) - kSpinTailNs;
                std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
            }
            while ((now = lcrq::rdtsc()) < intended) {
            }
            // Open loop: a late request is submitted late, never skipped.
            ds.lag.record(now - intended);
            const value_t v = encode(kGenerator, seq);
            if (!fault.keep_enqueue() || q.try_enqueue(v)) {
                pr.note(v);
            } else {
                ++pr.refused;
            }
            if (stamps) {
                stamps->submit[seq] = now;
                stamps->admitted[seq] = lcrq::rdtsc();
            }
        }
        st.out[kWorkers].end_ticks = lcrq::rdtsc();
    });

    threads.back().join();
    q.close();
    for (int w = 0; w < kWorkers; ++w) threads[static_cast<std::size_t>(w)].join();
    st.finish(rs);
    rs.ops = st.produced[kGenerator].count;
    for (int w = 0; w < kWorkers; ++w) {
        ds.completed += completed[static_cast<std::size_t>(w)];
        ds.service_ticks += service_sum[static_cast<std::size_t>(w)];
    }
    rs.ops += ds.completed;
    detail::drain_and_check(q, st, rs);
    rs.steal = steal_frac(cpu0, read_cpu_times());

    if (stamps) {
        rs.spans = std::make_unique<SpanLog>();
        std::vector<double> gaps;
        gaps.reserve(schedule.size());
        for (std::uint64_t seq = 1; seq <= schedule.size(); ++seq) {
            if (stamps->service1[seq] == 0) continue;
            const std::uint64_t id = encode(kGenerator, seq);
            const std::uint64_t intended = st.t0 + schedule[seq - 1];
            const auto& s = *stamps;
            SpanLog& log = *rs.spans;
            log.record(SpanKind::kGenLag, id, intended, s.submit[seq]);
            log.record(SpanKind::kAdmit, id, s.submit[seq], s.admitted[seq]);
            log.record(SpanKind::kResidence, id, s.admitted[seq], s.dequeued[seq]);
            log.record(SpanKind::kService, id, s.service0[seq], s.service1[seq]);
            log.record(SpanKind::kE2e, id, intended, s.service1[seq]);
            auto d = [](std::uint64_t a, std::uint64_t b) {
                return static_cast<double>(b) - static_cast<double>(a);
            };
            gaps.push_back(d(intended, s.service1[seq]) -
                           (d(intended, s.submit[seq]) + d(s.submit[seq], s.admitted[seq]) +
                            std::max(0.0, d(s.admitted[seq], s.dequeued[seq])) +
                            d(s.service0[seq], s.service1[seq])));
        }
        ds.span_gap_p50_ticks = median(std::move(gaps));
    }
    return ds;
}

}  // namespace perfbench
