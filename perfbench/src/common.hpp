// Shared pieces of the perfbench workloads: item encoding and the output
// check, host probes for run validity, percentiles, and span records.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "queues/queue_common.hpp"
#include "util/histogram.hpp"
#include "util/timing.hpp"
#include "util/xorshift.hpp"

namespace perfbench {

using lcrq::value_t;

// Items carry (producer, seq), seq counting from 1 in enqueue order, so
// every item is unique and a consumer can check per-producer FIFO order.
inline constexpr unsigned kSeqBits = 40;
constexpr value_t encode(std::size_t producer, std::uint64_t seq) noexcept {
    return (static_cast<value_t>(producer) << kSeqBits) | seq;
}
constexpr std::size_t producer_of(value_t v) noexcept {
    return static_cast<std::size_t>(v >> kSeqBits);
}
constexpr std::uint64_t seq_of(value_t v) noexcept {
    return v & ((value_t{1} << kSeqBits) - 1);
}

// ---------------------------------------------------------------- check --

// What a producer handed to the queue.  The sums let the reconciliation
// see a duplicated-plus-lost pair that leaves the counts balanced.
struct Produced {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t sumsq = 0;
    std::uint64_t refused = 0;

    void note(value_t v) noexcept {
        ++count;
        sum += v;
        sumsq += v * v;
    }
};

// One consumer's view: per-producer order plus the same sums.
class Consumed {
  public:
    explicit Consumed(std::size_t producers) : streams_(producers) {}

    void observe(value_t v) noexcept {
        const std::size_t p = producer_of(v);
        if (p >= streams_.size()) {
            ++foreign_;
            return;
        }
        Stream& s = streams_[p];
        const std::uint64_t q = seq_of(v);
        if (q <= s.last) {
            ++reordered_;
        } else {
            s.last = q;
        }
        s.got.note(v);
    }

    std::size_t producers() const noexcept { return streams_.size(); }
    const Produced& got(std::size_t p) const noexcept { return streams_[p].got; }
    std::uint64_t reordered() const noexcept { return reordered_; }
    std::uint64_t foreign() const noexcept { return foreign_; }

  private:
    struct Stream {
        std::uint64_t last = 0;
        Produced got;
    };
    std::vector<Stream> streams_;
    std::uint64_t reordered_ = 0;
    std::uint64_t foreign_ = 0;
};

struct CheckResult {
    std::uint64_t attempted = 0;  // items offered to the queue
    std::uint64_t refused = 0;
    std::uint64_t lost = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;

    std::uint64_t failed() const noexcept { return refused + lost + duplicated + reordered; }
    CheckResult& operator+=(const CheckResult& o) noexcept;
};

// Compare what producers enqueued with what consumers (and the final drain)
// dequeued: enqueued must equal dequeued plus drained, item for item.
CheckResult reconcile(const std::vector<Produced>& produced,
                      const std::vector<Consumed>& consumed);

// Fault the self-test plants at thread 0's queue boundary, to show that the
// check catches a duplicated, lost or reordered item.
enum class Fault { kNone, kDuplicate, kLose, kReorder };

class FaultPoint {
  public:
    explicit FaultPoint(Fault f) noexcept : fault_(f) {}

    // False when the item is to be dropped instead of enqueued; the caller
    // still records it as produced.
    bool keep_enqueue() noexcept { return !(fault_ == Fault::kLose && ++enqueues_ == kAt); }

    void deliver(Consumed& c, value_t v) noexcept;
    void flush(Consumed& c) noexcept;

  private:
    static constexpr std::uint64_t kAt = 1000;
    const Fault fault_;
    std::uint64_t enqueues_ = 0;
    std::uint64_t dequeues_ = 0;
    std::optional<value_t> held_;
    bool done_ = false;
};

// ---------------------------------------------------------------- host --

struct CpuTimes {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
CpuTimes read_cpu_times();  // aggregate "cpu" line of /proc/stat
double steal_frac(const CpuTimes& before, const CpuTimes& after);
// Peak resident memory of this process since the last reset_peak_rss(), in
// MiB.  The reset first hands freed heap back to the kernel, so a round's
// peak is its own and not a leftover of an earlier round; where the kernel
// refuses the reset, the peak is the process's lifetime peak.
void reset_peak_rss();
double peak_rss_mb();
unsigned online_cpus();
// Pin the calling thread to one CPU (index modulo the online count), so a
// round's threads keep their placement instead of migrating mid-round.
void pin_to_cpu(unsigned index);

// ---------------------------------------------------------------- time --

inline double ticks_to_us(double ticks) { return ticks / lcrq::tsc_per_ns() / 1e3; }
inline double ticks_to_ns(double ticks) { return ticks / lcrq::tsc_per_ns(); }

// The methodology's random 0-100 ns pause between operations (paper §5).
class Pause {
  public:
    explicit Pause(std::uint64_t seed)
        : rng_(seed),
          max_ticks_(static_cast<std::uint64_t>(100.0 * lcrq::tsc_per_ns()) + 1) {}
    void operator()() noexcept {
        const std::uint64_t ticks = rng_.bounded(max_ticks_);
        const std::uint64_t start = lcrq::rdtsc();
        while (lcrq::rdtsc() - start < ticks) {
        }
    }

  private:
    lcrq::Xoshiro256 rng_;
    const std::uint64_t max_ticks_;
};

// q-quantile of a histogram, interpolated inside the bucket the rank falls
// in, so the value moves with the data instead of snapping to bucket edges.
double quantile(const lcrq::LatencyHistogram& h, double q);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);  // 0 for an empty vector

// ---------------------------------------------------------------- spans --

enum class SpanKind : std::uint8_t {
    kAnyEnqueue,  // AnyQueue::enqueue call
    kAnyDequeue,  // AnyQueue::dequeue call
    kAdmit,       // BlockingQueue::try_enqueue call
    kResidence,   // admit return -> dequeue return
    kGenLag,      // intended arrival -> generator submit
    kService,     // worker service spin
    kE2e,         // intended arrival -> end of service
    kCount
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);
const char* span_name(SpanKind k);

struct Span {
    std::uint64_t id;  // request id: the item value (producer, seq)
    std::uint64_t t0;  // ticks
    std::uint64_t t1;
    SpanKind kind;
};

// Per-thread span store: every span lands in its kind's histogram; the
// first kKeep are also kept whole for the trace file.
class SpanLog {
  public:
    static constexpr std::size_t kKeep = 512;

    SpanLog() { kept_.reserve(kKeep); }

    void record(SpanKind k, std::uint64_t id, std::uint64_t t0, std::uint64_t t1) {
        hist_[static_cast<std::size_t>(k)].record(t1 > t0 ? t1 - t0 : 0);
        if (kept_.size() < kKeep) kept_.push_back({id, t0, t1, k});
    }
    void merge(const SpanLog& o);

    const lcrq::LatencyHistogram& hist(SpanKind k) const {
        return hist_[static_cast<std::size_t>(k)];
    }
    const std::vector<Span>& kept() const noexcept { return kept_; }

  private:
    std::array<lcrq::LatencyHistogram, kSpanKinds> hist_;
    std::vector<Span> kept_;
};

}  // namespace perfbench
