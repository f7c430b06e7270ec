// The closed-loop workloads (pairs, backlog) as one round each, generic
// over the structure under test so the layer ladder reuses them rung by
// rung, and the open-loop dispatch round over the blocking facade.
//
// A round builds its structure, starts its threads, lets each do its first
// operations before the clock starts (thread ids, hazard records and
// counter blocks are created lazily on first use, and that cost belongs
// to set-up), runs the timed part, joins, drains what is left and checks
// the output.
#pragma once

#include <barrier>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/counters.hpp"
#include "common.hpp"
#include "queues/queue_common.hpp"
#include "queues/scq.hpp"
#include "registry/queue_registry.hpp"
#include "util/histogram.hpp"
#include "util/timing.hpp"

namespace perfbench {

// Ring sizes of the closed-loop workloads: pairs keeps the paper-scale
// ring that never closes under 4 threads; backlog picks a small ring so a
// 2^16-item backlog spans ~1000 segments.
inline constexpr unsigned kPairsRingOrder = 12;
inline constexpr unsigned kBacklogRingOrder = 6;

inline lcrq::QueueOptions ring_options(unsigned order) {
    lcrq::QueueOptions o;
    o.ring_order = order;
    return o;
}

// One try-enqueue / dequeue vocabulary over every rung of the ladder: raw
// rings report a refusal (a closed CRQ, a full SCQ/wCQ ring), list queues
// and AnyQueue always accept, the facade admits or refuses.
template <class Q>
bool put(Q& q, value_t v) {
    if constexpr (requires { { q.try_enqueue(v) } -> std::same_as<bool>; }) {
        return q.try_enqueue(v);
    } else if constexpr (requires {
                             { q.try_enqueue(v) } -> std::same_as<lcrq::ScqPutResult>;
                         }) {
        return q.try_enqueue(v) == lcrq::ScqPutResult::kOk;
    } else if constexpr (requires {
                             { q.enqueue(v) } -> std::same_as<lcrq::EnqueueResult>;
                         }) {
        return q.enqueue(v) == lcrq::EnqueueResult::kOk;
    } else {
        q.enqueue(v);
        return true;
    }
}

template <class Q>
std::optional<value_t> take(Q& q) {
    if constexpr (requires { q.try_dequeue(); }) {
        return q.try_dequeue();
    } else {
        return q.dequeue();
    }
}

// The calling thread's span store while a traced round runs; null otherwise.
inline thread_local SpanLog* tls_spans = nullptr;

// AnyQueue with a span around each call into it.
class TracedAny {
  public:
    explicit TracedAny(std::unique_ptr<lcrq::AnyQueue> q) : q_(std::move(q)) {}

    void enqueue(value_t v) {
        const std::uint64_t t0 = lcrq::rdtsc();
        q_->enqueue(v);
        const std::uint64_t t1 = lcrq::rdtsc();
        if (tls_spans != nullptr) tls_spans->record(SpanKind::kAnyEnqueue, v, t0, t1);
    }
    std::optional<value_t> dequeue() {
        const std::uint64_t t0 = lcrq::rdtsc();
        auto r = q_->dequeue();
        const std::uint64_t t1 = lcrq::rdtsc();
        if (tls_spans != nullptr) {
            tls_spans->record(SpanKind::kAnyDequeue, r.value_or(0), t0, t1);
        }
        return r;
    }

  private:
    std::unique_ptr<lcrq::AnyQueue> q_;
};

struct RoundStats {
    double setup_s = 0;       // construction, prefill, thread start, warm-up
    double elapsed_s = 0;     // clock start -> last thread done
    std::uint64_t ops = 0;    // completed enqueues + dequeues while timed
    std::uint64_t cpu_ns = 0; // summed thread CPU time while timed
    // Sampled per-operation latency (closed loop) or intended-arrival to
    // end-of-service latency (dispatch), in TSC ticks.
    lcrq::LatencyHistogram lat;
    CheckResult check;
    double steal = 0;         // host steal share over the round
    bool aborted = false;     // pairs: a refusal stopped the round early
    lcrq::stats::Snapshot events;  // counter delta while timed
    std::unique_ptr<SpanLog> spans;  // traced rounds only

    double mops() const { return elapsed_s > 0 ? static_cast<double>(ops) / elapsed_s / 1e6 : 0; }
    double ns_per_op_thread(int threads) const {
        return ops > 0 ? elapsed_s * 1e9 * threads / static_cast<double>(ops) : 0;
    }
};

namespace detail {

struct ThreadOut {
    std::uint64_t end_ticks = 0;
    std::uint64_t cpu_ns = 0;
    std::uint64_t ops = 0;
    lcrq::LatencyHistogram lat;
};

// Everything a round shares with its threads: clock start, per-thread
// results and the check's tallies.
struct RoundState {
    RoundState(int threads, std::size_t producers, bool traced)
        : out(static_cast<std::size_t>(threads)),
          produced(producers),
          consumed(static_cast<std::size_t>(threads), Consumed(producers)) {
        if (traced) logs.resize(static_cast<std::size_t>(threads));
    }

    // Runs once, when every thread has finished its warm-up.
    void open_clock(std::uint64_t setup_start_ns, std::uint64_t duration_ns) noexcept {
        setup_s = static_cast<double>(lcrq::now_ns() - setup_start_ns) / 1e9;
        before = lcrq::stats::global_snapshot();
        t0 = lcrq::rdtsc();
        deadline = t0 + static_cast<std::uint64_t>(static_cast<double>(duration_ns) *
                                                   lcrq::tsc_per_ns());
    }

    void finish(RoundStats& rs) {
        rs.events = lcrq::stats::global_snapshot() - before;
        rs.setup_s = setup_s;
        std::uint64_t end = t0;
        for (const ThreadOut& o : out) {
            end = std::max(end, o.end_ticks);
            rs.cpu_ns += o.cpu_ns;
            rs.ops += o.ops;
            rs.lat.merge(o.lat);
        }
        rs.elapsed_s = ticks_to_ns(static_cast<double>(end - t0)) / 1e9;
        if (!logs.empty()) {
            rs.spans = std::make_unique<SpanLog>();
            for (const SpanLog& l : logs) rs.spans->merge(l);
        }
    }

    std::vector<ThreadOut> out;
    std::vector<Produced> produced;
    std::vector<Consumed> consumed;
    std::vector<SpanLog> logs;
    double setup_s = 0;
    std::uint64_t t0 = 0;
    std::uint64_t deadline = 0;
    lcrq::stats::Snapshot before;
};

// Drain what the round left behind and check the whole output.
template <class Q>
void drain_and_check(Q& q, RoundState& st, RoundStats& rs) {
    Consumed drained(st.produced.size());
    while (auto v = take(q)) drained.observe(*v);
    st.consumed.push_back(std::move(drained));
    rs.check = reconcile(st.produced, st.consumed);
}

}  // namespace detail

// ---------------------------------------------------------------- pairs --

struct PairsConfig {
    int threads = 4;
    std::uint64_t duration_ns = 0;
    std::uint64_t seed = 1;
    Fault fault = Fault::kNone;
    bool traced = false;
};

// Closed loop, paper §5: each thread alternates enqueue and dequeue with a
// random 0-100 ns pause after each, on a queue that starts empty.  Every
// dequeue call counts as an operation, EMPTY included.
template <class Make>
RoundStats pairs_round(Make&& make, const PairsConfig& cfg) {
    RoundStats rs;
    const CpuTimes cpu0 = read_cpu_times();
    const std::uint64_t s0 = lcrq::now_ns();
    auto q = make();
    const int n = cfg.threads;
    detail::RoundState st(n, static_cast<std::size_t>(n), cfg.traced);
    std::atomic<bool> stop{false};
    std::barrier gate(n, [&]() noexcept { st.open_clock(s0, cfg.duration_ns); });

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            const auto ti = static_cast<std::size_t>(i);
            pin_to_cpu(static_cast<unsigned>(i));
            if (cfg.traced) tls_spans = &st.logs[ti];
            Pause pause(cfg.seed * 0x9E3779B97F4A7C15ULL + ti);
            FaultPoint fault(i == 0 ? cfg.fault : Fault::kNone);
            Produced& pr = st.produced[ti];
            Consumed& co = st.consumed[ti];
            detail::ThreadOut& out = st.out[ti];
            std::uint64_t seq = 0;
            auto one_pair = [&] {
                const value_t v = encode(ti, ++seq);
                const bool sample = (seq & 7) == 0;
                std::uint64_t a = sample ? lcrq::rdtsc() : 0;
                if (!fault.keep_enqueue()) {
                    pr.note(v);
                } else if (put(*q, v)) {
                    pr.note(v);
                } else {
                    ++pr.refused;
                    stop.store(true, std::memory_order_relaxed);
                }
                if (sample) out.lat.record(lcrq::rdtsc() - a);
                pause();
                if (sample) a = lcrq::rdtsc();
                const auto r = take(*q);
                if (sample) out.lat.record(lcrq::rdtsc() - a);
                if (r) fault.deliver(co, *r);
                pause();
            };
            one_pair();
            gate.arrive_and_wait();
            const std::uint64_t c0 = lcrq::thread_cpu_ns();
            std::uint64_t pairs = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                for (int k = 0; k < 32; ++k) one_pair();
                pairs += 32;
                if (lcrq::rdtsc() >= st.deadline) break;
            }
            out.end_ticks = lcrq::rdtsc();
            out.cpu_ns = lcrq::thread_cpu_ns() - c0;
            out.ops = 2 * pairs;
            fault.flush(co);
            tls_spans = nullptr;
        });
    }
    for (auto& t : threads) t.join();
    st.finish(rs);
    rs.aborted = stop.load();
    detail::drain_and_check(*q, st, rs);
    rs.steal = steal_frac(cpu0, read_cpu_times());
    return rs;
}

// -------------------------------------------------------------- backlog --

struct BacklogConfig {
    int producers = 2;
    int consumers = 2;
    std::uint64_t quota = 1;          // items per producer and per consumer
    std::uint64_t prefill = 1u << 16;
    std::uint64_t seed = 1;
    Fault fault = Fault::kNone;
    bool traced = false;
    int checkpoints = 0;  // quiescent stops for the callback, 0 = none
};

// Closed loop with fixed quotas over a standing backlog (paper Fig. 7a):
// the queue is prefilled, then producers and consumers each move `quota`
// items, so the backlog stays near `prefill` and producers append at the
// tail while consumers retire segments at the head.  A consumer that finds
// the queue empty retries; only delivered items count as operations.
template <class Make, class OnCheckpoint>
RoundStats backlog_round(Make&& make, const BacklogConfig& cfg, OnCheckpoint&& on_checkpoint) {
    RoundStats rs;
    const CpuTimes cpu0 = read_cpu_times();
    const std::uint64_t s0 = lcrq::now_ns();
    auto q = make();
    const int n = cfg.producers + cfg.consumers;
    // Producer ids: 0..producers-1 for the threads, `producers` for the
    // prefill stream.
    const auto prefill_id = static_cast<std::size_t>(cfg.producers);
    detail::RoundState st(n, prefill_id + 1, cfg.traced);
    for (std::uint64_t s = 1; s <= cfg.prefill; ++s) {
        const value_t v = encode(prefill_id, s);
        if (put(*q, v)) {
            st.produced[prefill_id].note(v);
        } else {
            ++st.produced[prefill_id].refused;
        }
    }
    std::barrier gate(n, [&]() noexcept { st.open_clock(s0, 0); });
    std::barrier checkpoint(n, [&]() noexcept { on_checkpoint(*q); });
    const std::uint64_t timed = cfg.quota > 0 ? cfg.quota - 1 : 0;
    const int phases = cfg.checkpoints > 0 ? cfg.checkpoints : 1;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            const auto ti = static_cast<std::size_t>(i);
            pin_to_cpu(static_cast<unsigned>(i));
            if (cfg.traced) tls_spans = &st.logs[ti];
            Pause pause(cfg.seed * 0x9E3779B97F4A7C15ULL + ti);
            FaultPoint fault(i == 0 || i == cfg.producers ? cfg.fault : Fault::kNone);
            detail::ThreadOut& out = st.out[ti];
            const bool producer = i < cfg.producers;
            std::uint64_t seq = 0;
            std::uint64_t refused = 0;
            auto one = [&] {
                const bool sample = (++seq & 7) == 0;
                const std::uint64_t a = sample ? lcrq::rdtsc() : 0;
                if (producer) {
                    const value_t v = encode(ti, seq);
                    if (!fault.keep_enqueue() || put(*q, v)) {
                        st.produced[ti].note(v);
                    } else {
                        ++refused;
                    }
                } else {
                    for (;;) {
                        if (auto r = take(*q)) {
                            fault.deliver(st.consumed[ti], *r);
                            break;
                        }
                        pause();  // empty: the producers are behind
                    }
                }
                if (sample) out.lat.record(lcrq::rdtsc() - a);
                pause();
            };
            if (cfg.quota > 0) one();
            gate.arrive_and_wait();
            const std::uint64_t c0 = lcrq::thread_cpu_ns();
            std::uint64_t done = 0;
            for (int p = 0; p < phases; ++p) {
                const std::uint64_t until = timed * static_cast<std::uint64_t>(p + 1) /
                                            static_cast<std::uint64_t>(phases);
                for (; done < until; ++done) one();
                if (cfg.checkpoints > 0) checkpoint.arrive_and_wait();
            }
            out.end_ticks = lcrq::rdtsc();
            out.cpu_ns = lcrq::thread_cpu_ns() - c0;
            out.ops = done;
            if (producer) st.produced[ti].refused += refused;
            if (!producer) fault.flush(st.consumed[ti]);
            tls_spans = nullptr;
        });
    }
    for (auto& t : threads) t.join();
    st.finish(rs);
    detail::drain_and_check(*q, st, rs);
    rs.steal = steal_frac(cpu0, read_cpu_times());
    return rs;
}

template <class Make>
RoundStats backlog_round(Make&& make, const BacklogConfig& cfg) {
    return backlog_round(std::forward<Make>(make), cfg, [](auto&) {});
}

// ------------------------------------------------------------- dispatch --

struct DispatchConfig {
    std::string backend = "lcrq";
    std::uint64_t window_ns = 0;
    double rate_mops = 0.3;          // offered load, M requests/s
    std::uint64_t service_ns = 250;  // per-request work (spin)
    std::uint64_t seed = 1;
    Fault fault = Fault::kNone;
    bool traced = false;
};

struct DispatchStats {
    RoundStats round;  // lat = intended arrival -> end of service
    lcrq::LatencyHistogram lag;  // intended arrival -> submit, ticks
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t service_ticks = 0;  // summed service spin
    // Traced rounds: median of e2e minus the request's spans (lag, admit,
    // residence, service), i.e. the time no span covers.
    double span_gap_p50_ticks = 0;
};

// Open loop: one generator submits on a seeded Poisson schedule fixed
// before the clock starts, two workers serve with a 250 ns spin.  The
// facade is BlockingQueue<UniquePtrBase<AnyQueue>> over `backend`.
DispatchStats dispatch_round(const DispatchConfig& cfg);

}  // namespace perfbench
