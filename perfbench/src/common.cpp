#include "common.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

CheckResult& CheckResult::operator+=(const CheckResult& o) noexcept {
    attempted += o.attempted;
    refused += o.refused;
    lost += o.lost;
    duplicated += o.duplicated;
    reordered += o.reordered;
    return *this;
}

CheckResult reconcile(const std::vector<Produced>& produced,
                      const std::vector<Consumed>& consumed) {
    CheckResult r;
    for (std::size_t p = 0; p < produced.size(); ++p) {
        const Produced& put = produced[p];
        r.attempted += put.count + put.refused;
        r.refused += put.refused;
        Produced got;
        for (const Consumed& c : consumed) {
            if (p >= c.producers()) continue;
            got.count += c.got(p).count;
            got.sum += c.got(p).sum;
            got.sumsq += c.got(p).sumsq;
        }
        if (got.count > put.count) {
            r.duplicated += got.count - put.count;
        } else if (got.count < put.count) {
            r.lost += put.count - got.count;
        } else if (got.sum != put.sum || got.sumsq != put.sumsq) {
            // Balanced counts with different items: at least one item came
            // out twice and another never did.
            ++r.duplicated;
            ++r.lost;
        }
    }
    for (const Consumed& c : consumed) {
        r.reordered += c.reordered();
        r.duplicated += c.foreign();  // an item no producer made
    }
    return r;
}

void FaultPoint::deliver(Consumed& c, value_t v) noexcept {
    ++dequeues_;
    if (fault_ == Fault::kDuplicate && dequeues_ == kAt) {
        c.observe(v);
        c.observe(v);
        return;
    }
    if (fault_ == Fault::kReorder && !done_) {
        // Hold one item back and deliver it after the next item of the
        // same producer: the two arrive swapped.
        if (!held_ && dequeues_ >= kAt) {
            held_ = v;
            return;
        }
        if (held_ && producer_of(v) == producer_of(*held_)) {
            c.observe(v);
            c.observe(*held_);
            held_.reset();
            done_ = true;
            return;
        }
    }
    c.observe(v);
}

void FaultPoint::flush(Consumed& c) noexcept {
    if (held_) c.observe(*held_);
    held_.reset();
}

CpuTimes read_cpu_times() {
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so only the first eight add up.
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && (fields >> v); ++i) {
        t.total += v;
        if (i == 7) t.steal = v;
    }
    return t;
}

double steal_frac(const CpuTimes& before, const CpuTimes& after) {
    if (after.total <= before.total) return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string key;
    std::uint64_t kib = 0;
    while (in >> key) {
        if (key == "VmHWM:" && (in >> kib)) return static_cast<double>(kib) / 1024.0;
        in.ignore(1 << 10, '\n');
    }
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned online_cpus() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

void pin_to_cpu(unsigned index) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(index % online_cpus(), &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double quantile(const lcrq::LatencyHistogram& h, double q) {
    using H = lcrq::LatencyHistogram;
    if (h.total() == 0) return 0.0;
    double prev_cum = 0.0;
    for (const H::Point& p : h.cdf_points()) {
        if (p.cum_fraction >= q) {
            const std::size_t idx = H::index_of(p.ns);
            const double lo = idx == 0 ? 0.0 : static_cast<double>(H::upper_bound(idx - 1)) + 1.0;
            const double hi = static_cast<double>(p.ns) + 1.0;
            const double span = p.cum_fraction - prev_cum;
            const double frac = span > 0 ? (q - prev_cum) / span : 1.0;
            return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
        }
        prev_cum = p.cum_fraction;
    }
    return static_cast<double>(h.max());
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

const char* span_name(SpanKind k) {
    switch (k) {
        case SpanKind::kAnyEnqueue: return "registry.enqueue";
        case SpanKind::kAnyDequeue: return "registry.dequeue";
        case SpanKind::kAdmit: return "facade.admit";
        case SpanKind::kResidence: return "facade.residence";
        case SpanKind::kGenLag: return "dispatch.gen_lag";
        case SpanKind::kService: return "dispatch.service";
        case SpanKind::kE2e: return "dispatch.e2e";
        case SpanKind::kCount: break;
    }
    return "?";
}

void SpanLog::merge(const SpanLog& o) {
    for (std::size_t i = 0; i < kSpanKinds; ++i) hist_[i].merge(o.hist_[i]);
    for (const Span& s : o.kept_) {
        if (kept_.size() >= 8 * kKeep) break;
        kept_.push_back(s);
    }
}

}  // namespace perfbench
