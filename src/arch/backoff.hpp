// Waiting primitives.
//
// Every unbounded spin loop in this library — combiner waits in the
// CC/H/FC queues, the cluster handoff of the hierarchical variants — goes
// through SpinWait, which escalates `pause` -> `sched_yield`.  (The CRQ
// dequeue's wait for a matching enqueuer is a capped cpu_relax() loop.)
// The escalation is what keeps the blocking baselines live when threads
// outnumber hardware threads (the regime of Figure 6b, and the only one a
// 1-CPU host has): a waiter that never yields can deny the combiner the
// CPU it is waiting on.
#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#include <sched.h>

namespace lcrq {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    asm volatile("" ::: "memory");
#endif
}

// Spin politely: `pause` for the first kSpinLimit iterations, then yield to
// the OS scheduler on every further iteration.
class SpinWait {
  public:
    static constexpr std::uint32_t kSpinLimit = 128;

    void spin() noexcept {
        // The threshold only selects pause-vs-yield; every call counts, so
        // spins() reports the true wait length (it used to saturate at
        // kSpinLimit once the yield phase began, under-reporting long
        // waits to telemetry).
        if (count_ < kSpinLimit) {
            cpu_relax();
        } else {
            ::sched_yield();
        }
        ++count_;
    }

    void reset() noexcept { count_ = 0; }
    std::uint32_t spins() const noexcept { return count_; }

  private:
    std::uint32_t count_ = 0;
};

// Randomized truncated exponential backoff, used by the MS queue after a
// failed CAS on head/tail.  State is per call site and per thread.
class ExponentialBackoff {
  public:
    explicit ExponentialBackoff(std::uint32_t min_spins = 4,
                                std::uint32_t max_spins = 1024) noexcept
        : limit_(min_spins), max_(max_spins) {}

    void backoff() noexcept {
        // xorshift step; seeded from the object's address so distinct
        // threads decorrelate without a global RNG.
        seed_ ^= seed_ << 13;
        seed_ ^= seed_ >> 7;
        seed_ ^= seed_ << 17;
        const std::uint32_t spins = 1 + static_cast<std::uint32_t>(seed_ % limit_);
        for (std::uint32_t i = 0; i < spins; ++i) cpu_relax();
        if (limit_ < max_) limit_ *= 2;
        // Stay polite when oversubscribed: one yield per backoff episode
        // past the first doubling.
        if (limit_ > 8) ::sched_yield();
    }

    void reset(std::uint32_t min_spins = 4) noexcept { limit_ = min_spins; }

  private:
    std::uint32_t limit_;
    std::uint32_t max_;
    std::uint64_t seed_ = reinterpret_cast<std::uintptr_t>(this) | 1;
};

}  // namespace lcrq
