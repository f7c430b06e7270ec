#include "util/timing.hpp"

#include <algorithm>
#include <array>

namespace lcrq {

namespace {

// Brackets taken back to back at each end of the window: a preemption
// widens one of them, not the narrowest.
constexpr std::size_t kBracketsPerEnd = 8;
// Each end is known to within half its narrowest bracket.  The window
// spans at least this many bracket widths, so that half-width stays within
// 5e-5 of it and the two ends together within 1e-4, inside these limits.
constexpr std::uint64_t kWindowPerWidth = 10'000;
constexpr std::uint64_t kMinWindowNs = 1'000'000;
constexpr std::uint64_t kMaxWindowNs = 10'000'000;

using Endpoint = std::array<detail::TscBracket, kBracketsPerEnd>;

Endpoint bracket_now() {
    Endpoint end;
    for (detail::TscBracket& b : end) {
        b.ns_before = now_ns();
        b.tsc = rdtsc_fenced();
        b.ns_after = now_ns();
    }
    return end;
}

const detail::TscBracket& narrowest(std::span<const detail::TscBracket> brackets) {
    return *std::min_element(brackets.begin(), brackets.end(),
                             [](const detail::TscBracket& a, const detail::TscBracket& b) {
                                 return a.width_ns() < b.width_ns();
                             });
}

}  // namespace

namespace detail {

double tsc_rate(std::span<const TscBracket> start, std::span<const TscBracket> end) {
    const TscBracket& s = narrowest(start);
    const TscBracket& e = narrowest(end);
    // Midpoint to midpoint, differenced before halving so no absolute
    // clock reading passes through a double.
    const double ns =
        static_cast<double>(static_cast<std::int64_t>(e.ns_before - s.ns_before)) +
        (static_cast<double>(e.width_ns()) - static_cast<double>(s.width_ns())) / 2;
    return ns > 0 ? static_cast<double>(e.tsc - s.tsc) / ns : 0.0;
}

std::uint64_t calibration_window_ns(std::uint64_t bracket_width_ns) {
    if (bracket_width_ns >= kMaxWindowNs / kWindowPerWidth) return kMaxWindowNs;
    return std::max(bracket_width_ns * kWindowPerWidth, kMinWindowNs);
}

double calibrate_tsc(std::uint64_t min_window_ns) {
    const Endpoint start = bracket_now();
    const TscBracket& s = narrowest(start);
    const std::uint64_t window =
        std::max(calibration_window_ns(s.width_ns()), min_window_ns);
    while (now_ns() - s.ns_after < window) {
    }
    const double ratio = tsc_rate(start, bracket_now());
    return ratio > 0 ? ratio : 1.0;
}

}  // namespace detail

double tsc_per_ns() {
    static const double ratio = detail::calibrate_tsc();
    return ratio;
}

}  // namespace lcrq
