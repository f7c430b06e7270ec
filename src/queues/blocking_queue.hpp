// Blocking facade over the nonblocking queues.
//
// The algorithms in this library are *total*: dequeue returns EMPTY
// instead of waiting (that totality is what the paper's progress claims
// are about).  Applications that want consumers to sleep when idle — and
// producers to feel backpressure instead of growing the queue without
// bound — layer this facade on top.  Futex eventcounts turn the
// nonblocking operations into blocking ones without touching the queue's
// hot path: consumers only enter the futex slow path after the fast
// dequeue misses, producers only bump the epoch and pay a wake syscall
// when a waiter is registered, and (bounded mode) producers sleep on a
// second eventcount that dequeues signal.  Suspended coroutine frames
// (async_queue.hpp) register and park on the same eventcounts.
//
// The base is anything that meets FacadeBase below: a concrete list queue
// or bounded ring, or a registry queue behind UniquePtrBase<AnyQueue>.
//
// Idle waiters write nothing a producer reads.  A waiter makes one real
// dequeue (or admission), then, for a spin window of kSpinWindowNs timed
// with the TSC, polls the base's read-only looks_empty() peek and makes a
// real attempt only when the peek says items arrived.  A base without a
// real peek answers "don't know" (false), so its window is spent on real
// attempts.  The window is one futex park->wake round trip, so a wake
// that would come within that time is caught spinning instead of paying
// for the park.
//
// One spinner per facade.  Only the consumer thread that holds the spin
// token runs that window; every other thread waiter parks as a standby on
// an eventcount that only close() signals, in slices of kSpinWindowNs,
// each ending in a peek.  A standby makes a real attempt when the peek
// shows items, and takes the token when it is free or stale (Scherer, Lea
// and Scott's synchronous queues spin only the waiter at the front).  The
// token word holds the holder's thread_index() and the TSC stamp of its
// window's start, and goes stale one window later, so a holder that
// returned an item and never came back, or died in its window, keeps the
// others from spinning for one window and the slice a standby is in (the
// kernel's timer slack stretches a slice: 50 us by default on Linux).
// Producers never read the token and never wake a standby: a standby's
// delivery rests on its own peek, so an admit touches no line and makes
// no syscall for it, and the producers' path stays what the single-waiter
// case costs.  Waking standbys from the admit path would add a load of
// the token's line and a syscall to admits for the items the spinner is
// too busy to take.
//
// Semantics:
//   try_enqueue(x)      — nonblocking admission: false when closed, at the
//                         capacity watermark, or when a bounded base ring
//                         is full.  A full refusal counts as a shed.
//   try_admit(x)        — the same attempt answered as an EnqueueResult and
//                         without the shed accounting, for layers that run
//                         their own retry loop (the coroutine facade).
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
// Capacity model: every thread that uses the facade counts its own
// admits and dequeues in a facade-owned ThreadTable entry (monotonic
// tallies only their owner writes), whatever the base, so no admit or
// dequeue makes a contended RMW.  approx_size() is the exact sum of the
// tallies.  A bounded facade also keeps one shared estimate: a thread
// folds +kFoldBatch into it each time its admitted tally reaches a
// multiple of kFoldBatch (before publishing the tally) and -kFoldBatch
// each time its dequeued tally does (after publishing it), so the
// estimate only errs high and each tally holds fewer than kFoldBatch
// unfolded admits.  Admission therefore admits at once while
// estimate + high_water() * kFoldBatch < capacity (the fast check, a
// bound on the sum from above).  Within that slack of capacity it sums
// the tallies — O(threads) reads — and refuses only when the exact sum
// is >= capacity.  The sum is exact at quiescence and approximate under
// concurrency, so capacity is a watermark, not a hard invariant —
// transient overshoot by the number of in-flight enqueuers is possible
// and fine for backpressure (the server-side shed accounting is exact
// either way).  An unbounded facade never folds: none of its admits or
// dequeues writes a shared line.  Facade operations take a dense thread
// id (arch/thread_id.hpp).
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
#include <coroutine>
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
#include "arch/thread_id.hpp"
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

// The base contract, written once: the paper's total queue plus what a
// waiter needs.
//   try_enqueue(x)  kOk; kFull when a bounded ring has no free slot
//                   (retryable: a dequeue frees one); kClosed once the base
//                   itself was closed (final)
//   dequeue()       the first item, or EMPTY
//   looks_empty()   read-only emptiness hint for idle waiters; false means
//                   "don't know", and nothing sleeps on a true without a
//                   real re-check
//   capacity()      the base's own bound; 0 = unbounded
template <typename B>
concept FacadeBase = requires(B& b, const B& cb, value_t v) {
    { b.try_enqueue(v) } -> std::same_as<EnqueueResult>;
    { b.dequeue() } -> std::same_as<std::optional<value_t>>;
    { b.looks_empty() } -> std::same_as<bool>;
    { cb.capacity() } -> std::convertible_to<std::uint64_t>;
};

namespace detail {

// Registration units of an EventCount: sleeping threads count in the low
// half of one 64-bit word, parked coroutine frames in the high half.
enum class Waiter : std::uint64_t { kThread = 1, kFrame = std::uint64_t{1} << 32 };

// Futex eventcount: an epoch word sleeping threads wait on, a stack of
// parked coroutine frames, and the registration word, so a notifier with
// nobody registered writes nothing.  The epoch is 32-bit because
// FUTEX_WAIT compares exactly 4 bytes; wraparound after 2^32 bumps is
// harmless (a sleeper whose observed epoch is re-reached after a full wrap
// eats one spurious slice timeout and re-checks).
//
// The handshake, the same for both kinds of waiter
// (verify/notify_model.hpp enumerates its interleavings):
//   waiter:   announce(kind); e = prepare(); re-check the condition; if it
//             still fails, park — a thread in wait_slice(e, ...), a frame
//             by co_await park(e) — then retract(kind).
//   notifier: publish the change; signal().
// signal() is a fence and a load of the registration word.  Only when it
// is nonzero does it bump the epoch; it then futex-wakes when a thread is
// registered and, after a second fence, pops and resumes every parked
// frame when a frame is.  The fences order the pair: either the notifier
// sees the registration and bumps — so a sleeper's futex compare fails or
// the wake finds it parked, and a frame either sees the bump after its
// push or sits on the stack the notifier pops — or the waiter's re-check
// sees the published change and never parks.
class EventCount {
    enum : int { kParked = 0, kResumed = 1, kAborted = 2 };

    // One parked frame.  Two owners may touch it concurrently — the
    // frame's await_suspend, which must run its abort CAS even when it
    // loses the race, and the stack side (the signal or destructor that
    // pops it) — and each drops one reference.  The state CAS decides who
    // resumes the frame: the signal (kResumed) or the frame itself
    // (kAborted, inline).
    struct FrameNode {
        std::coroutine_handle<> handle;
        FrameNode* next = nullptr;
        std::atomic<int> state{kParked};
        std::atomic<int> refs{2};

        bool claim(int to) noexcept {
            int expected = kParked;
            return state.compare_exchange_strong(expected, to, std::memory_order_acq_rel);
        }
        void release() noexcept {
            if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
        }
    };

  public:
    EventCount() = default;
    EventCount(const EventCount&) = delete;
    EventCount& operator=(const EventCount&) = delete;
    // Frames still parked at destruction are abandoned; their nodes go.
    ~EventCount() {
        for (FrameNode* n = frames_.load(std::memory_order_acquire); n != nullptr;) {
            FrameNode* const next = n->next;
            n->release();
            n = next;
        }
    }

    // Snapshot the epoch after announce() and before the final condition
    // re-check; pass it to wait_slice or park so a signal between re-check
    // and parking is never missed.
    std::uint32_t prepare() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    void announce(Waiter w) noexcept {
        registered_.fetch_add(static_cast<std::uint64_t>(w), std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    void retract(Waiter w) noexcept {
        registered_.fetch_sub(static_cast<std::uint64_t>(w), std::memory_order_seq_cst);
    }

    // Threads registered now (the low half of the registration word).
    std::uint32_t registered_threads() const noexcept {
        return static_cast<std::uint32_t>(registered_.load(std::memory_order_relaxed));
    }

    // Publish "the condition may have changed" to registered waiters.  The
    // injection point sits between the bump and the wakes: a notifier
    // killed there leaves sleeping threads to their slice timeout and
    // parked frames to the next signal.
    void signal() LCRQ_INJECT_NOEXCEPT {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::uint64_t r = registered_.load(std::memory_order_relaxed);
        if (r == 0) return;
        epoch_.fetch_add(1, std::memory_order_seq_cst);
        LCRQ_INJECT_POINT(kBlockNotify);
        if (static_cast<std::uint32_t>(r) != 0) wake_threads();
        if (r >= static_cast<std::uint64_t>(Waiter::kFrame)) resume_frames();
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

    // co_await park(observed): suspend the calling frame until a signal
    // resumes it, unless the epoch has already moved past `observed`.
    // Resumption runs on the signalling thread.
    class Park {
      public:
        bool await_ready() const noexcept { return ec_.prepare() != observed_; }

        // Once the node is on the stack a signal may claim it and resume —
        // and so destroy — the frame this awaiter lives in, so everything
        // needed after the push is copied into locals first.
        bool await_suspend(std::coroutine_handle<> h) {
            EventCount& ec = ec_;
            const std::uint32_t observed = observed_;
            auto* node = new FrameNode{h};
            node->next = ec.frames_.load(std::memory_order_relaxed);
            while (!ec.frames_.compare_exchange_weak(node->next, node,
                                                     std::memory_order_release,
                                                     std::memory_order_relaxed)) {
            }
            // Pairs with signal()'s fence after its bump: either the bump is
            // visible here (abort the park, resume inline) or the push is
            // visible to the signal's pop.
            std::atomic_thread_fence(std::memory_order_seq_cst);
            const bool aborted = ec.prepare() != observed && node->claim(kAborted);
            node->release();
            return !aborted;
        }

        void await_resume() const noexcept {}

      private:
        friend class EventCount;
        Park(EventCount& ec, std::uint32_t observed) noexcept
            : ec_(ec), observed_(observed) {}

        EventCount& ec_;
        std::uint32_t observed_;
    };
    Park park(std::uint32_t observed) noexcept { return Park(*this, observed); }

  private:
    void wake_threads() noexcept {
#if defined(__linux__)
        syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_),
                FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#endif
        // Fallback sleepers poll on slice expiry; no wake needed.
    }

    // Pop every parked frame and resume the ones no abort claimed first.
    void resume_frames() {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        FrameNode* n = frames_.exchange(nullptr, std::memory_order_acq_rel);
        while (n != nullptr) {
            FrameNode* const next = n->next;
            const std::coroutine_handle<> h = n->handle;
            const bool mine = n->claim(kResumed);
            n->release();
            if (mine) h.resume();
            n = next;
        }
    }

    static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
    alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch_{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> registered_{0};
    std::atomic<FrameNode*> frames_{nullptr};  // written only while a frame is registered
};

// One thread's share of a facade's size: the items it admitted and
// dequeued.  Only the entry's owner writes it (store of load + 1, as
// stats::count does), on a line of its own.
struct alignas(kCacheLineSize) SizeTally {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> dequeued{0};
};

// Retract-on-unwind guard: a waiter killed while parked (injection
// harness) must not leave the registration stuck, or notifiers would pay
// wakes forever.  Frames hold one across their suspension.
class WaiterGuard {
  public:
    WaiterGuard(EventCount& ec, Waiter w) noexcept : ec_(ec), w_(w) { ec_.announce(w_); }
    ~WaiterGuard() { ec_.retract(w_); }
    WaiterGuard(const WaiterGuard&) = delete;
    WaiterGuard& operator=(const WaiterGuard&) = delete;

  private:
    EventCount& ec_;
    const Waiter w_;
};

}  // namespace detail

// Adapter so the facade composes over a registry-constructed backend:
// BlockingQueue<UniquePtrBase<AnyQueue>> wraps any catalog queue picked at
// runtime.  It forwards the base contract and nothing else.
template <typename Q>
class UniquePtrBase {
  public:
    explicit UniquePtrBase(std::unique_ptr<Q> q) noexcept : q_(std::move(q)) {}

    EnqueueResult try_enqueue(value_t x) { return q_->try_enqueue(x); }
    std::optional<value_t> dequeue() { return q_->dequeue(); }
    bool looks_empty() { return q_->looks_empty(); }
    std::uint64_t capacity() const noexcept { return q_->capacity(); }

    Q& operator*() noexcept { return *q_; }
    Q* operator->() noexcept { return q_.get(); }

  private:
    std::unique_ptr<Q> q_;
};

template <FacadeBase Base>
class AsyncQueue;

template <FacadeBase Base = LcrqQueue>
class BlockingQueue {
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
    // base refused (full ring, or closed directly via base().close()), or
    // when a bounded facade is at its watermark.  A full refusal counts as
    // a shed; a closed refusal does not.
    bool try_enqueue(value_t x) {
        const EnqueueResult r = try_admit(x);
        if (r == EnqueueResult::kFull) stats::count(stats::Event::kShed);
        return r == EnqueueResult::kOk;
    }

    // One admission attempt: closed check, watermark check, base insert,
    // publish.  kFull is retryable (the watermark or a bounded base ring
    // refused, and a dequeue frees space); kClosed is final.  Counts no
    // shed: one logical enqueue that parks and retries (wait_enqueue, the
    // coroutine facade) must record at most one final outcome.
    EnqueueResult try_admit(value_t x) {
        if (closed_.load(std::memory_order_acquire)) return EnqueueResult::kClosed;
        if (capacity_ != 0 && !below_capacity()) return EnqueueResult::kFull;
        const EnqueueResult r = base_.try_enqueue(x);
        if (r != EnqueueResult::kOk) return r;
        auto& admitted = tallies_.local().admitted;
        const std::uint64_t n = admitted.load(std::memory_order_relaxed) + 1;
        if (n % kFoldBatch == 0 && capacity_ != 0) {
            estimate_.fetch_add(kFoldBatch, std::memory_order_relaxed);
        }
        admitted.store(n, std::memory_order_relaxed);
        // Only registered waiters cost this producer an epoch bump and a
        // wake.
        items_ec_.signal();
        return r;
    }

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
            EnqueueResult r = try_admit(x);
            if (r != EnqueueResult::kFull) return admitted_status(r);
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
                detail::WaiterGuard guard(space_ec_, detail::Waiter::kThread);
                const std::uint32_t observed = space_ec_.prepare();
                r = try_admit(x);
                if (r != EnqueueResult::kFull) return admitted_status(r);
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
        if (v.has_value()) {
            auto& dequeued = tallies_.local().dequeued;
            const std::uint64_t n = dequeued.load(std::memory_order_relaxed) + 1;
            dequeued.store(n, std::memory_order_relaxed);
            if (n % kFoldBatch == 0 && capacity_ != 0) {
                estimate_.fetch_sub(kFoldBatch, std::memory_order_relaxed);
            }
            // Producers may be parked on the space eventcount whenever the
            // facade or its base is bounded; with none registered, the
            // signal is a fence and a load.
            if (bounded_) space_ec_.signal();
        }
        return v;
    }

    // Indefinite wait; nullopt only after close() with the queue drained.
    std::optional<value_t> wait_dequeue() {
        return wait_dequeue_until(kNoDeadline).to_optional();
    }

    WaitResult wait_dequeue_for(std::uint64_t timeout_ns) {
        return wait_dequeue_until(saturating_deadline(timeout_ns));
    }

    // Timed wait.  One real dequeue; then, holding the spin token, peeks
    // between real dequeues for a spin window (capped by the deadline),
    // then register on the items eventcount and sleep in deadline-capped
    // slices (futex on Linux).  The slice cap bounds the damage of a lost
    // notify: a producer killed between bump and wake (kBlockNotify) delays
    // the sleeper by at most one slice instead of stranding it.  Without
    // the token the waiter stands by (stand_by) until its peek shows items
    // or the token frees, then starts over with a real dequeue.
    WaitResult wait_dequeue_until(std::uint64_t deadline_ns) {
        bool counted_block = false;
        std::uint64_t spin_end = 0;  // opened by the first miss
        for (;;) {
            if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
            if (closed_.load(std::memory_order_acquire)) return drain_after_close();
            if (spin_end == 0) {
                if (now_ns() >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
                if (!claim_spin_token()) {
                    if (stand_by(deadline_ns, counted_block)) continue;
                    return {WaitStatus::kTimeout, kBottom};
                }
                LCRQ_INJECT_POINT(kBlockSpin);
                spin_end = spin_window_end(deadline_ns);
            }
            if (await_items(spin_end)) continue;
            if (now_ns() >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
            {
                detail::WaiterGuard guard(items_ec_, detail::Waiter::kThread);
                const std::uint32_t observed = items_ec_.prepare();
                if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
                if (closed_.load(std::memory_order_acquire)) return drain_after_close();
                count_block(counted_block);
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
        standby_ec_.signal();
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

    // Items currently inside: admitted minus dequeued, summed over the
    // per-thread tallies.  Exact at quiescence; O(threads that used the
    // facade).
    std::uint64_t approx_size() const noexcept {
        std::uint64_t enq = 0;
        std::uint64_t deq = 0;
        tallies_.for_each([&](const detail::SizeTally& t) {
            enq += t.admitted.load(std::memory_order_relaxed);
            deq += t.dequeued.load(std::memory_order_relaxed);
        });
        return enq > deq ? enq - deq : 0;
    }

    std::size_t capacity() const noexcept { return capacity_; }
    Base& base() noexcept { return base_; }

    // Epoch snapshots, for tests that witness which operations bump.
    std::uint32_t items_epoch() const noexcept { return items_ec_.prepare(); }
    std::uint32_t space_epoch() const noexcept { return space_ec_.prepare(); }

    // Test peers: the thread_index() the spin token names, stale or not
    // (nullopt while it is free), and the waiters standing by.
    std::optional<std::size_t> debug_spin_holder() const noexcept {
        const std::uint64_t held = spin_token_.load(std::memory_order_relaxed);
        if (held == 0) return std::nullopt;
        return static_cast<std::size_t>((held & kHolderMask) - 1);
    }
    std::uint32_t debug_standby_waiters() const noexcept {
        return standby_ec_.registered_threads();
    }

  private:
    // The coroutine facade registers and parks its frames on items_ec_ and
    // space_ec_.
    friend class AsyncQueue<Base>;

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
    // A tally folds into the shared estimate once per this many counts.
    static constexpr std::int64_t kFoldBatch = 64;
    // The spin token's low bits name its holder, as thread_index() + 1 so
    // that 0 means free; the bits above hold the TSC stamp.
    static constexpr unsigned kHolderBits = 10;
    static constexpr std::uint64_t kHolderMask = (std::uint64_t{1} << kHolderBits) - 1;
    static_assert(kMaxThreads <= kHolderMask);

    // The bounded admission check (see the file comment): admit at once
    // while the estimate plus kFoldBatch per table entry (more than any
    // entry's unfolded admits) stays below capacity; otherwise decide on
    // the exact sum.
    bool below_capacity() const noexcept {
        const auto slack = static_cast<std::int64_t>(tallies_.high_water()) * kFoldBatch;
        if (estimate_.load(std::memory_order_relaxed) + slack <
            static_cast<std::int64_t>(capacity_)) {
            return true;
        }
        return approx_size() < capacity_;
    }

    static std::uint64_t saturating_deadline(std::uint64_t timeout_ns) noexcept {
        const std::uint64_t now = now_ns();
        return timeout_ns > kNoDeadline - now ? kNoDeadline : now + timeout_ns;
    }

    // A final (non-kFull) admission answer as a wait outcome.
    static WaitStatus admitted_status(EnqueueResult r) noexcept {
        return r == EnqueueResult::kOk ? WaitStatus::kOk : WaitStatus::kClosed;
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
    // base that answers "don't know" makes its every pass a real attempt.
    bool await_items(std::uint64_t spin_end) {
        for (;;) {
            if (rdtsc() >= spin_end) return false;
            cpu_relax();
            if (!base_.looks_empty() || closed_.load(std::memory_order_acquire)) return true;
        }
    }

    // A token this thread may take at TSC time `now`: free, its own, or
    // stale — its holder's window, opened at the stamp, has ended.  Stamps
    // keep the TSC's low 64 - kHolderBits bits, so ages are taken modulo
    // that width.  A stamp less than a window ahead of `now` is fresh: rdtsc
    // does not wait for the load that saw the stamp, so `now` can be read
    // before the holder took it.
    bool token_open(std::uint64_t held, std::uint64_t now) const noexcept {
        if (held == 0 || (held & kHolderMask) == thread_index() + 1) return true;
        const std::uint64_t stamp = held & ~kHolderMask;
        const std::uint64_t age = ((now << kHolderBits) - stamp) >> kHolderBits;
        const std::uint64_t ahead = (stamp - (now << kHolderBits)) >> kHolderBits;
        return age >= spin_window_ticks_ && ahead >= spin_window_ticks_;
    }

    // Take the spin token, stamped with the start of the window about to
    // open; false when another waiter's window is running or a rival took
    // the token first.  Relaxed: the token decides who spins, never who
    // gets an item, so nothing is published through it.
    bool claim_spin_token() noexcept {
        std::uint64_t held = spin_token_.load(std::memory_order_relaxed);
        const std::uint64_t now = rdtsc();
        if (!token_open(held, now)) return false;
        return spin_token_.compare_exchange_strong(
            held, (now << kHolderBits) | (thread_index() + 1), std::memory_order_relaxed);
    }

    // A waiter without the token parks on standby_ec_ in kSpinWindowNs
    // slices, each ending in a peek.  True: make a real attempt (the peek
    // shows items, the queue closed, or the token is open); false: the
    // deadline passed first.  No admit signals standby_ec_ — only close()
    // does — so the peek is what delivers to a standby.
    bool stand_by(std::uint64_t deadline_ns, bool& counted_block) {
        detail::WaiterGuard guard(standby_ec_, detail::Waiter::kThread);
        for (;;) {
            const std::uint32_t observed = standby_ec_.prepare();
            if (closed_.load(std::memory_order_acquire)) return true;
            count_block(counted_block);
            LCRQ_INJECT_POINT(kBlockWait);
            const std::uint64_t nw = now_ns();
            if (nw >= deadline_ns) return false;
            standby_ec_.wait_slice(observed, std::min(deadline_ns - nw, kSpinWindowNs));
            if (!base_.looks_empty() ||
                token_open(spin_token_.load(std::memory_order_relaxed), rdtsc())) {
                return true;
            }
        }
    }

    // kBlockedDeq counts a wait call that parked, once, whichever way.
    static void count_block(bool& counted) noexcept {
        if (counted) return;
        stats::count(stats::Event::kBlockedDeq);
        counted = true;
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
    // Dequeues signal the space eventcount only when a producer can be
    // refused for want of space.
    const bool bounded_ = capacity_ != 0 || base_.capacity() != 0;
    // The TSC rate, calibrated (1 ms on a user-space clock, once per
    // process) at construction rather than inside the first waiter's spin
    // window.
    const double tsc_per_ns_ = tsc_per_ns();
    const std::uint64_t spin_window_ticks_ =
        static_cast<std::uint64_t>(static_cast<double>(kSpinWindowNs) * tsc_per_ns_);
    detail::EventCount items_ec_;    // the spinner parks; admissions signal
    detail::EventCount standby_ec_;  // standby waiters park; only close() signals
    detail::EventCount space_ec_;    // bounded producers wait; dequeues signal
    // approx_size() and the watermark: per-thread admitted and dequeued
    // tallies, and (bounded only) the folded estimate of their sum.
    alignas(kCacheLineSize) ThreadTable<detail::SizeTally> tallies_;
    alignas(kCacheLineSize) std::atomic<std::int64_t> estimate_{0};
    alignas(kCacheLineSize) std::atomic<bool> closed_{false};
    // Who runs the consumer spin window (see the file comment); written by
    // waiters only, on a line no producer reads.
    alignas(kCacheLineSize) std::atomic<std::uint64_t> spin_token_{0};
};

}  // namespace lcrq
