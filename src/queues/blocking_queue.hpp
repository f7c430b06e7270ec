// Blocking facade over the nonblocking queues.
//
// The algorithms in this library are *total*: dequeue returns EMPTY
// instead of waiting (that totality is what the paper's progress claims
// are about).  Applications that want consumers to sleep when idle — and
// producers to feel backpressure instead of growing the queue without
// bound — layer this facade on top.  Two futex eventcounts turn the
// nonblocking operations into blocking ones without touching the queue's
// hot path: consumers only enter the futex slow path after the fast
// dequeue misses, producers only bump the epoch and pay a wake syscall
// when a waiter is registered, and (bounded mode) producers sleep on a
// second eventcount that dequeues signal.
//
// Idle waiters write nothing shared.  A waiter makes one real dequeue
// (or admission), then, for a spin window of kSpinWindowNs timed with the
// TSC, polls the base's read-only looks_empty() peek and makes a real
// attempt only when the peek says items arrived.  Bases without a peek
// (and AnyQueue's default) answer "don't know", so their window is spent
// on real attempts.  The window is one futex park->wake round trip, so
// a wake that would come within that time is caught spinning instead of
// paying for the park.
//
// Semantics:
//   try_enqueue(x)      — nonblocking admission: false when closed, at the
//                         capacity watermark, or when a bounded base ring
//                         is full.  A full refusal counts as a shed.
//   try_admit(x)        — the same attempt as an Admission tri-state and
//                         without the shed accounting, for layers that run
//                         their own retry loop (the coroutine facade).
//   enqueue(x)          — alias for try_enqueue (historical name).
//   wait_enqueue[_for]  — bounded-mode producers sleep until space, close,
//                         or the deadline; returns WaitStatus.
//   try_dequeue()       — the base queue's nonblocking dequeue.
//   wait_dequeue()      — blocks until an item arrives or close() is
//                         called; nullopt only after close() with the
//                         queue drained.
//   wait_dequeue_for()  — timed wait returning a WaitResult tri-state, so
//                         callers can tell "timed out, retry later" from
//                         "closed and drained, stop".  Sleeps for real: a
//                         futex timed wait on Linux (sliced, so a lost
//                         notify costs bounded latency, never a strand),
//                         a sliced sleep_for elsewhere.  A zero or past
//                         deadline still makes one real dequeue.
//   close()             — wakes everyone; further enqueues are refused,
//                         pending items remain dequeueable.
//   drain(timeout_ns)   — close (if needed) and dequeue the remainder
//                         until a conclusive post-close EMPTY or the
//                         deadline; reports {drained, complete,
//                         stragglers}.
//
// Capacity model: the watermark reads the base's approx_size() when it
// has one (LCRQ/LSCQ/SCQ/wCQ all do); otherwise the facade maintains its
// own enq/deq counters.  approx_size is approximate under concurrency by
// design, so capacity is a watermark, not a hard invariant — transient
// overshoot by the number of in-flight enqueuers is possible and fine for
// backpressure (the server-side shed accounting is exact either way).
//
// Post-close drain: a single EMPTY observation after close() is not
// conclusive — enqueuers admitted before the close may still be
// publishing (the base accepts them; only *new* admissions are refused).
// Every closed-path exit therefore re-checks EMPTY for a bounded number
// of rounds before reporting closed-and-drained.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>
#else
#include <chrono>
#include <thread>
#endif

#include "arch/backoff.hpp"
#include "arch/counters.hpp"
#include "arch/inject.hpp"
#include "queues/lcrq.hpp"
#include "queues/queue_common.hpp"
#include "util/timing.hpp"

namespace lcrq {

// Outcome of a bounded blocking operation.
enum class WaitStatus : std::uint8_t {
    kOk,       // dequeue: item delivered / enqueue: item accepted
    kTimeout,  // deadline expired with the queue still open — retrying later
               //   can succeed
    kClosed,   // queue closed (and, for dequeue, drained) — retrying cannot
};

// Outcome of one admission attempt.  kFull is *retryable* — the facade
// watermark or the base's bounded ring refused, and a dequeue can free
// space — while kClosed is final.  Layers that run their own retry/park
// loop (wait_enqueue, the coroutine facade) branch on this tri-state;
// try_enqueue collapses it to bool and counts the kFull as a shed.
enum class Admission : std::uint8_t { kAccepted, kFull, kClosed };

// Tri-state result of wait_dequeue_for: kOk carries the item; kTimeout and
// kClosed are distinguishable so callers know whether to retry.
struct WaitResult {
    WaitStatus status = WaitStatus::kTimeout;
    value_t value = kBottom;

    bool ok() const noexcept { return status == WaitStatus::kOk; }
    bool timed_out() const noexcept { return status == WaitStatus::kTimeout; }
    bool closed() const noexcept { return status == WaitStatus::kClosed; }
    std::optional<value_t> to_optional() const noexcept {
        return ok() ? std::optional<value_t>(value) : std::nullopt;
    }
};

// Result of drain(): how far the post-close sweep got before the deadline.
struct DrainReport {
    std::uint64_t drained = 0;     // items this call delivered to the sink
    bool complete = false;         // reached a conclusive post-close EMPTY
    std::uint64_t stragglers = 0;  // approx items still inside at the deadline
};

namespace detail {

// 32-bit futex eventcount: epoch word sleepers wait on + waiter count so
// a notifier with nobody registered writes nothing.  32-bit because
// FUTEX_WAIT compares exactly 4 bytes; epoch wraparound after 2^32 bumps
// is harmless (a sleeper whose observed epoch is re-reached after a full
// wrap eats one spurious slice timeout and re-checks).
//
// The handshake (verify/notify_model.hpp enumerates its interleavings):
//   waiter:   announce_waiter(); e = prepare(); re-check the condition;
//             wait_slice(e, ...) if it still fails; retract_waiter().
//   notifier: publish the change; signal().
// signal() is a fence and a load of the waiter count; it bumps and wakes
// only when that count is nonzero.  The two seq_cst fences (after the
// announce, before the count load) order the pair: either the notifier
// sees the registration and bumps — so the sleeper's futex compare fails
// or the wake finds it parked — or the waiter's re-check sees the
// published change and never sleeps.
class EventCount {
  public:
    // Snapshot the epoch after announce_waiter() and before the final
    // condition re-check; pass it to wait_slice so a signal between
    // re-check and sleep is never missed.
    std::uint32_t prepare() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    void announce_waiter() noexcept {
        waiters_.fetch_add(1, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    void retract_waiter() noexcept { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

    // Unconditional epoch advance, for layers whose waiters watch the
    // epoch without registering (the coroutine facade's awaiters).
    void bump() noexcept { epoch_.fetch_add(1, std::memory_order_seq_cst); }

    // Publish "the condition may have changed" to registered waiters.  The
    // injection point sits in the bump-to-wake window.
    void signal() LCRQ_INJECT_NOEXCEPT {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (waiters_.load(std::memory_order_relaxed) == 0) return;
        bump();
        LCRQ_INJECT_POINT(kBlockNotify);
        wake_all();
    }

    // Sleep until the epoch moves past `observed` or roughly `slice_ns`
    // elapse — one OS wait, callers loop.  Spurious returns are fine (the
    // caller re-checks its condition).  Slices are how a *lost* wake —
    // a notifier dying between bump and wake (kill injection), or the
    // futex-less fallback — costs bounded extra latency instead of a
    // stranded sleeper: no single sleep is unbounded.
    void wait_slice(std::uint32_t observed, std::uint64_t slice_ns) noexcept {
        if (slice_ns == 0) return;
#if defined(__linux__)
        timespec ts;
        ts.tv_sec = static_cast<time_t>(slice_ns / 1'000'000'000u);
        ts.tv_nsec = static_cast<long>(slice_ns % 1'000'000'000u);
        syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_),
                FUTEX_WAIT_PRIVATE, observed, &ts, nullptr, 0);
#else
        if (epoch_.load(std::memory_order_acquire) == observed) {
            constexpr std::uint64_t kFallbackCapNs = 1'000'000;  // poll at >= 1kHz
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(std::min(slice_ns, kFallbackCapNs)));
        }
#endif
    }

  private:
    void wake_all() noexcept {
#if defined(__linux__)
        syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_),
                FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#endif
        // Fallback sleepers poll on slice expiry; no wake needed.
    }

    static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
    alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch_{0};
    alignas(kCacheLineSize) std::atomic<std::uint32_t> waiters_{0};
};

// Decrement-on-unwind guard: a waiter killed while parked (injection
// harness) must not leave the waiter count stuck high, or producers would
// pay wake syscalls forever.
class WaiterGuard {
  public:
    explicit WaiterGuard(EventCount& ec) noexcept : ec_(ec) { ec_.announce_waiter(); }
    ~WaiterGuard() { ec_.retract_waiter(); }
    WaiterGuard(const WaiterGuard&) = delete;
    WaiterGuard& operator=(const WaiterGuard&) = delete;

  private:
    EventCount& ec_;
};

}  // namespace detail

// Adapter so the facade composes over a registry-constructed backend:
// BlockingQueue<UniquePtrBase<AnyQueue>> wraps any catalog queue picked at
// runtime.  AnyQueue exposes the total enqueue/dequeue and the waiters'
// peek, so the facade falls back to its own size counters for the
// capacity watermark.
template <typename Q>
class UniquePtrBase {
  public:
    explicit UniquePtrBase(std::unique_ptr<Q> q) noexcept : q_(std::move(q)) {}
    UniquePtrBase(UniquePtrBase&&) noexcept = default;
    UniquePtrBase& operator=(UniquePtrBase&&) noexcept = default;

    void enqueue(value_t x) { q_->enqueue(x); }
    std::optional<value_t> dequeue() { return q_->dequeue(); }
    bool looks_empty()
        requires requires(Q& q) { { q.looks_empty() } -> std::same_as<bool>; }
    {
        return q_->looks_empty();
    }

    Q& operator*() noexcept { return *q_; }
    Q* operator->() noexcept { return q_.get(); }

  private:
    std::unique_ptr<Q> q_;
};

template <typename Base = LcrqQueue>
class BlockingQueue {
    static constexpr bool kBaseHasTryEnqueue =
        requires(Base& b, value_t v) { { b.try_enqueue(v) } -> std::same_as<bool>; };
    static constexpr bool kBaseHasApproxSize =
        requires(Base& b) { { b.approx_size() } -> std::convertible_to<std::uint64_t>; };
    // A closed() probe disambiguates a base-side try_enqueue refusal: full
    // (retryable) vs closed (final).  Bases without one never close
    // themselves (the bounded ring wrappers), so a refusal means full.
    static constexpr bool kBaseHasClosedProbe =
        requires(const Base& b) { { b.closed() } -> std::convertible_to<bool>; };
    // A bounded base can refuse with kFull even when the facade itself is
    // unbounded (capacity_ == 0); dequeues must then signal the space
    // eventcount or wait_enqueue producers would only make slice-timeout
    // progress.
    static constexpr bool kBaseIsBounded =
        requires(const Base& b) { { b.capacity() } -> std::convertible_to<std::uint64_t>; };
    static constexpr bool kBaseHasPeek =
        requires(Base& b) { { b.looks_empty() } -> std::same_as<bool>; };

  public:
    // capacity == 0 means unbounded (no watermark, no shedding).
    explicit BlockingQueue(const QueueOptions& opt = {}, std::size_t capacity = 0)
        : base_(opt), capacity_(capacity) {}
    // Adopt an externally constructed base (e.g. UniquePtrBase over a
    // registry queue).
    explicit BlockingQueue(Base base, std::size_t capacity = 0)
        : base_(std::move(base)), capacity_(capacity) {}

    BlockingQueue(const BlockingQueue&) = delete;
    BlockingQueue& operator=(const BlockingQueue&) = delete;

    // --- producer side -----------------------------------------------------

    // Nonblocking admission.  False when the facade is closed, when the
    // base refused (full ring or closed directly via base().close()), or
    // when a bounded facade is at its watermark.  A full refusal counts as
    // a shed; a closed refusal does not.
    bool try_enqueue(value_t x) {
        const Admission a = admit(x);
        if (a == Admission::kFull) stats::count(stats::Event::kShed);
        return a == Admission::kAccepted;
    }
    bool enqueue(value_t x) { return try_enqueue(x); }

    // Non-counting admission for layers that run their own retry/park loop
    // (the coroutine facade): same attempt as try_enqueue, but a kFull is
    // reported to the caller instead of being counted as a shed — one
    // logical enqueue that parks and retries must record at most one final
    // outcome, not one shed per retry.
    Admission try_admit(value_t x) { return admit(x); }

    WaitStatus wait_enqueue(value_t x) { return wait_enqueue_until(x, kNoDeadline); }
    WaitStatus wait_enqueue_for(value_t x, std::uint64_t timeout_ns) {
        return wait_enqueue_until(x, saturating_deadline(timeout_ns));
    }

    // Bounded-mode producer wait: retries admission for a spin window,
    // then sleeps on the space eventcount (signalled by dequeues) until the
    // item is admitted, the queue closes, or the deadline passes.  A
    // timeout counts as a shed — the caller's request is dropped at the
    // watermark, just later.
    WaitStatus wait_enqueue_until(value_t x, std::uint64_t deadline_ns) {
        bool counted_block = false;
        std::uint64_t spin_end = 0;  // opened by the first refusal
        for (;;) {
            switch (admit(x)) {
                case Admission::kAccepted:
                    return WaitStatus::kOk;
                case Admission::kClosed:
                    return WaitStatus::kClosed;
                case Admission::kFull:
                    break;
            }
            if (spin_end == 0) spin_end = spin_window_end(deadline_ns);
            if (rdtsc() < spin_end) {
                cpu_relax();
                continue;
            }
            if (now_ns() >= deadline_ns) {
                stats::count(stats::Event::kShed);
                return WaitStatus::kTimeout;
            }
            // Slow path: register on the space eventcount, re-check (a
            // dequeue may have landed between the miss and registration),
            // then sleep one slice.
            {
                detail::WaiterGuard guard(space_ec_);
                const std::uint32_t observed = space_ec_.prepare();
                switch (admit(x)) {
                    case Admission::kAccepted:
                        return WaitStatus::kOk;
                    case Admission::kClosed:
                        return WaitStatus::kClosed;
                    case Admission::kFull:
                        break;
                }
                if (!counted_block) {
                    stats::count(stats::Event::kBlockedEnq);
                    counted_block = true;
                }
                LCRQ_INJECT_POINT(kBlockWait);
                const std::uint64_t nw = now_ns();
                if (nw >= deadline_ns) {
                    stats::count(stats::Event::kShed);
                    return WaitStatus::kTimeout;
                }
                space_ec_.wait_slice(observed,
                                     std::min(deadline_ns - nw, kMaxSliceNs));
            }
            spin_end = 0;
        }
    }

    // --- consumer side -----------------------------------------------------

    std::optional<value_t> try_dequeue() {
        auto v = base_.dequeue();
        if (v.has_value()) note_dequeued();
        return v;
    }

    // Indefinite wait; nullopt only after close() with the queue drained.
    std::optional<value_t> wait_dequeue() {
        return wait_dequeue_until(kNoDeadline).to_optional();
    }

    WaitResult wait_dequeue_for(std::uint64_t timeout_ns) {
        return wait_dequeue_until(saturating_deadline(timeout_ns));
    }

    // Timed wait.  One real dequeue, then peeks between real dequeues for
    // a spin window (capped by the deadline), then register on the items
    // eventcount and sleep in deadline-capped slices (futex on Linux).  The
    // slice cap bounds the damage of a lost notify: a producer killed
    // between bump and wake (kBlockNotify) delays the sleeper by at most
    // one slice instead of stranding it.
    WaitResult wait_dequeue_until(std::uint64_t deadline_ns) {
        bool counted_block = false;
        std::uint64_t spin_end = 0;  // opened by the first miss
        for (;;) {
            if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
            if (closed_.load(std::memory_order_acquire)) return drain_after_close();
            if (spin_end == 0) spin_end = spin_window_end(deadline_ns);
            if (await_items(spin_end)) continue;
            if (now_ns() >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
            {
                detail::WaiterGuard guard(items_ec_);
                const std::uint32_t observed = items_ec_.prepare();
                if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
                if (closed_.load(std::memory_order_acquire)) return drain_after_close();
                if (!counted_block) {
                    stats::count(stats::Event::kBlockedDeq);
                    counted_block = true;
                }
                LCRQ_INJECT_POINT(kBlockWait);
                const std::uint64_t nw = now_ns();
                if (nw >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
                items_ec_.wait_slice(observed, std::min(deadline_ns - nw, kMaxSliceNs));
            }
            spin_end = 0;
        }
    }

    // --- lifecycle ---------------------------------------------------------

    void close() {
        closed_.store(true, std::memory_order_seq_cst);
        items_ec_.signal();
        space_ec_.signal();
    }

    bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

    // Graceful shutdown: close (if not already closed) and dequeue the
    // remainder into `sink` until a conclusive post-close EMPTY or the
    // deadline.  Single sweeper per call; concurrent drains are safe (they
    // split the items).  `complete == false` means the deadline hit first —
    // `stragglers` approximates what is still inside (in-flight pre-close
    // enqueuers may still be publishing).
    template <typename Sink>
    DrainReport drain(std::uint64_t timeout_ns, Sink&& sink) {
        if (!closed()) close();
        const std::uint64_t deadline_ns = saturating_deadline(timeout_ns);
        DrainReport rep;
        SpinWait spinner;
        int empty_rounds = 0;
        for (;;) {
            LCRQ_INJECT_POINT(kDrain);
            if (auto v = try_dequeue()) {
                sink(*v);
                ++rep.drained;
                empty_rounds = 0;
                spinner.reset();
            } else if (++empty_rounds >= kClosedRecheckRounds) {
                rep.complete = true;
                break;
            } else {
                spinner.spin();
            }
            // Checked on the success path too: a large backlog fed to a
            // slow sink must stop at the deadline, not after the backlog.
            if (now_ns() >= deadline_ns) break;
        }
        if (!rep.complete) rep.stragglers = approx_size();
        return rep;
    }
    DrainReport drain(std::uint64_t timeout_ns) {
        return drain(timeout_ns, [](value_t) {});
    }

    // --- introspection -----------------------------------------------------

    // Items currently inside, approximately: the base's estimate when it
    // has one (O(1) for the list queues), else the facade's own enq/deq
    // counters.
    std::uint64_t approx_size() {
        if constexpr (kBaseHasApproxSize) {
            return base_.approx_size();
        } else {
            const std::uint64_t enq = enq_count_.load(std::memory_order_relaxed);
            const std::uint64_t deq = deq_count_.load(std::memory_order_relaxed);
            return enq > deq ? enq - deq : 0;
        }
    }

    std::size_t capacity() const noexcept { return capacity_; }
    Base& base() noexcept { return base_; }

    // Epoch snapshots and advances for layers that build their own waiters
    // on the same words (the coroutine facade): capture before the final
    // nonblocking re-check, compare after registering, exactly like
    // wait_slice callers.  Such waiters are not counted, so the facade's
    // own signals skip the bump for them: after publishing, a layer must
    // advance the epoch its waiters watch before it looks for them.
    std::uint32_t items_epoch() const noexcept { return items_ec_.prepare(); }
    std::uint32_t space_epoch() const noexcept { return space_ec_.prepare(); }
    void advance_items_epoch() noexcept { items_ec_.bump(); }
    void advance_space_epoch() noexcept { space_ec_.bump(); }

  private:
    // How long a waiter spins before it parks: one cross-CPU futex
    // park->wake round trip, rounded up (bench/micro_primitives
    // BM_FutexParkWakeRoundTrip; on a 4-vCPU VM its mean is 15 us on a
    // quiet host and 22 us while other jobs run — EXPERIMENTS.md).
    // Spinning about as long as a park costs keeps a waiter within twice
    // the better of the two.
    static constexpr std::uint64_t kSpinWindowNs = 25'000;
    // Bounded post-close EMPTY re-check (see file comment).
    static constexpr int kClosedRecheckRounds = 16;
    // Cap on any single sleep; the recovery bound after a lost notify.
    static constexpr std::uint64_t kMaxSliceNs = 10'000'000;
    static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

    static std::uint64_t saturating_deadline(std::uint64_t timeout_ns) noexcept {
        const std::uint64_t now = now_ns();
        return timeout_ns > kNoDeadline - now ? kNoDeadline : now + timeout_ns;
    }

    // TSC stamp at which a spin window opened now ends: kSpinWindowNs,
    // or less when the deadline comes first.
    std::uint64_t spin_window_end(std::uint64_t deadline_ns) const noexcept {
        const std::uint64_t start = rdtsc();
        const std::uint64_t now = now_ns();
        const std::uint64_t left = deadline_ns > now ? deadline_ns - now : 0;
        return start + static_cast<std::uint64_t>(
                           static_cast<double>(std::min(left, kSpinWindowNs)) * tsc_per_ns_);
    }

    // Spin on the read-only peek until it says items arrived (or the queue
    // closed) — true: make a real attempt — or the window ends — false.  A
    // base without a peek answers "not empty", so its every pass is a real
    // attempt.
    bool await_items(std::uint64_t spin_end) {
        for (;;) {
            if (rdtsc() >= spin_end) return false;
            cpu_relax();
            if (!looks_empty() || closed_.load(std::memory_order_acquire)) return true;
        }
    }

    bool looks_empty() {
        if constexpr (kBaseHasPeek) {
            return base_.looks_empty();
        } else {
            return false;
        }
    }

    // One admission attempt: closed check, watermark check, base insert,
    // publish.  Does not count sheds — callers decide whether a kFull is
    // final (try_enqueue) or retryable (wait_enqueue).
    Admission admit(value_t x) {
        if (closed_.load(std::memory_order_acquire)) return Admission::kClosed;
        if (capacity_ != 0 && approx_size() >= capacity_) return Admission::kFull;
        if constexpr (kBaseHasTryEnqueue) {
            // A base-side refusal is either a full bounded ring (retryable:
            // a dequeue frees a slot) or a base closed directly via
            // base().close(), which our flag cannot see (final; the
            // asserting base_.enqueue(x) would silently drop the item in
            // release builds).  The closed() probe tells them apart; bases
            // without one never close themselves, so their refusal is full.
            if (!base_.try_enqueue(x)) {
                if constexpr (kBaseHasClosedProbe) {
                    return base_.closed() ? Admission::kClosed : Admission::kFull;
                } else {
                    return Admission::kFull;
                }
            }
        } else {
            base_.enqueue(x);
        }
        if constexpr (!kBaseHasApproxSize) {
            enq_count_.fetch_add(1, std::memory_order_relaxed);
        }
        // Only consumers that already registered as waiters cost this
        // producer an epoch bump and a futex syscall.
        items_ec_.signal();
        return Admission::kAccepted;
    }

    void note_dequeued() {
        if constexpr (!kBaseHasApproxSize) {
            deq_count_.fetch_add(1, std::memory_order_relaxed);
        }
        // Producers may be parked on the space eventcount: always when the
        // facade is bounded, and even with capacity_ == 0 when the *base*
        // ring is bounded (admit() reports its full as retryable kFull).
        // With none registered, the signal is a fence and a load.
        if (kBaseIsBounded || capacity_ != 0) space_ec_.signal();
    }

    // Closed observed on the dequeue path: deliver any remaining item.  One
    // EMPTY is not conclusive while pre-close enqueuers may still be
    // publishing, so EMPTY is re-checked kClosedRecheckRounds times before
    // reporting closed-and-drained.
    WaitResult drain_after_close() {
        SpinWait spinner;
        for (int round = 0; round < kClosedRecheckRounds; ++round) {
            if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
            spinner.spin();
        }
        return {WaitStatus::kClosed, kBottom};
    }

    Base base_;
    const std::size_t capacity_;
    // The TSC rate, calibrated (~10 ms, once per process) at construction
    // rather than inside the first waiter's spin window.
    const double tsc_per_ns_ = tsc_per_ns();
    detail::EventCount items_ec_;  // consumers sleep; enqueues signal
    detail::EventCount space_ec_;  // bounded producers sleep; dequeues signal
    // Watermark fallback when the base has no approx_size.
    alignas(kCacheLineSize) std::atomic<std::uint64_t> enq_count_{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> deq_count_{0};
    alignas(kCacheLineSize) std::atomic<bool> closed_{false};
};

}  // namespace lcrq
