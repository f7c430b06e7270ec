// Nanosecond timing.
//
// Throughput measurements use the monotonic clock; per-operation latency
// sampling (Fig. 8) and the sub-100 ns inter-operation delays of the
// methodology need something cheaper than a clock_gettime call per event,
// so both are driven by rdtsc, calibrated once against the monotonic clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace lcrq {

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline std::uint64_t rdtsc() noexcept {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return now_ns();
#endif
}

// rdtsc() ordered against the surrounding code: the leading lfence keeps
// the read from executing before earlier loads complete, the trailing one
// keeps later instructions from starting before it.  For stamps that must
// bracket an operation (verify/history.hpp); timed loops keep rdtsc().
inline std::uint64_t rdtsc_fenced() noexcept {
#if defined(__x86_64__)
    _mm_lfence();
    const std::uint64_t t = __rdtsc();
    _mm_lfence();
    return t;
#else
    return now_ns();
#endif
}

// TSC ticks per nanosecond, measured once at startup (~10 ms).
double tsc_per_ns();

inline double tsc_to_ns(std::uint64_t ticks) {
    return static_cast<double>(ticks) / tsc_per_ns();
}

// CPU time consumed by the calling thread, in nanoseconds (0 where no
// per-thread clock exists).  Witness tests use the wall-vs-CPU gap to
// prove a bounded wait actually sleeps instead of spinning.
inline std::uint64_t thread_cpu_ns() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
#else
    return 0;
#endif
}

// Busy-wait for approximately `ns` nanoseconds without yielding — the
// methodology's inter-operation delay must not invite a context switch.
inline void spin_for_ns(std::uint64_t ns) noexcept {
    if (ns == 0) return;
    const std::uint64_t start = rdtsc();
    const auto ticks = static_cast<std::uint64_t>(static_cast<double>(ns) * tsc_per_ns());
    while (rdtsc() - start < ticks) {
    }
}

}  // namespace lcrq
