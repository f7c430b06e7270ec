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
#include <span>

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

// TSC ticks per nanosecond, measured on first use by detail::calibrate_tsc()
// (1 ms where the clock is read in user space, up to 10 ms where each read
// is a system call), then constant for the process.
double tsc_per_ns();

namespace detail {

// One bracketed TSC read: the monotonic clock read before and after a
// fenced rdtsc.  The TSC was read somewhere in [ns_before, ns_after];
// pairing it with the midpoint is off by at most half the width.
struct TscBracket {
    std::uint64_t ns_before = 0;
    std::uint64_t tsc = 0;
    std::uint64_t ns_after = 0;

    std::uint64_t width_ns() const noexcept { return ns_after - ns_before; }
};

// TSC ticks per nanosecond between two ends of a window, each given as
// non-empty brackets taken back to back.  Each end uses only its narrowest
// bracket, so a read that was preempted widens one bracket and is skipped;
// 0 if no time passed between the two.
double tsc_rate(std::span<const TscBracket> start, std::span<const TscBracket> end);

// The window for brackets `bracket_width_ns` wide: the shortest that keeps
// each end's uncertainty, half its bracket, within 5e-5 of the window (the
// rate within 1e-4), clamped to [1 ms, 10 ms].
std::uint64_t calibration_window_ns(std::uint64_t bracket_width_ns);

// One calibration: bracket the TSC, busy-wait the window chosen from the
// opening bracket's width (or `min_window_ns`, if longer), bracket it again.
double calibrate_tsc(std::uint64_t min_window_ns = 0);

}  // namespace detail

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
