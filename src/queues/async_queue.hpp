// C++20 coroutine facade over BlockingQueue: co_await-able enqueue and
// dequeue for servers that multiplex many logical consumers onto a few OS
// threads (the thread-per-request model the blocking facade serves does
// not scale to millions of idle connections; parked coroutine frames do).
//
// Layering: AsyncQueue owns a BlockingQueue and builds its *suspension*
// on the same epoch words the blocking facade sleeps on — an awaiter
// snapshots the relevant epoch (items for dequeue, space for bounded
// enqueue), retries the nonblocking op, and only parks when the epoch is
// still unchanged after its waiter node is published.  Wakers (enqueue,
// dequeue, close) pop the whole waiter stack and resume every parked
// frame; a resumed frame re-runs its retry loop, so spurious wakeups are
// harmless and the protocol needs no per-item handoff.
//
// Lost-wakeup freedom (the eventcount argument, restated for stacks):
// the waiter pushes its node with a seq_cst fence before re-reading the
// epoch; the waker, after publishing, bumps the epoch and fences before
// popping the stack.  Either the waiter's re-read sees the bump (it aborts
// the park and resumes itself), or the push precedes the pop in the
// head's modification order and the waker resumes it.  The bump is the
// waker's own: awaiters are not counted waiters, and the blocking
// facade's signal bumps only for counted ones (verify/notify_model.hpp
// checks both pairs, and that dropping this bump strands an awaiter).
//
// Node ownership: nodes are heap-allocated, one per park, and reference
// counted by the two parties that may touch them concurrently: the
// awaiter (which must still run its kParked->kAborted CAS even when a
// waker is racing it) and the stack side (whichever pop_all — a waker or
// the destructor — takes the node out).  Each party drops its reference
// exactly once; the second drop frees.  Who resumes the frame is decided
// by the state CAS: the waker (kParked->kResumed) or the awaiter itself
// (kParked->kAborted, resuming inline).  Because the winning waker may
// resume the frame — and thereby destroy the awaiter, which lives in the
// frame — before await_suspend returns, await_suspend copies everything
// it needs into locals before the push and touches only those locals and
// the refcounted node afterwards.
//
// Completion model: Task<T> is a lazy, move-only coroutine task with
// symmetric-transfer continuation chaining; sync_wait() bridges to
// threads.  Queue coroutines never throw across suspension (kill
// injection is for the blocking/thread harness; run async tests without
// LCRQ_INJECT kills on the coroutine path).
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>

#include "queues/blocking_queue.hpp"

namespace lcrq {

// --- minimal task type -------------------------------------------------

// Lazy coroutine task: starts suspended, runs when awaited (or driven by
// sync_wait), resumes its awaiter by symmetric transfer at completion.
template <typename T>
class [[nodiscard]] Task {
  public:
    struct promise_type {
        T result{};
        std::coroutine_handle<> continuation;

        Task get_return_object() {
            return Task(std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        struct FinalAwaiter {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<> await_suspend(
                std::coroutine_handle<promise_type> h) noexcept {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }
            void await_resume() noexcept {}
        };
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_value(T v) { result = std::move(v); }
        void unhandled_exception() { std::terminate(); }
    };

    Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;
    ~Task() {
        if (h_) h_.destroy();
    }

    auto operator co_await() && noexcept {
        struct Awaiter {
            std::coroutine_handle<promise_type> h;
            bool await_ready() const noexcept { return false; }
            std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
                h.promise().continuation = cont;
                return h;  // symmetric transfer into the task body
            }
            T await_resume() { return std::move(h.promise().result); }
        };
        return Awaiter{h_};
    }

  private:
    explicit Task(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
    std::coroutine_handle<promise_type> h_;
};

// Eager fire-and-forget coroutine: the frame frees itself at completion.
// Used to spawn concurrent logical workers from plain test/driver code.
struct DetachedTask {
    struct promise_type {
        DetachedTask get_return_object() noexcept { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };
};

namespace detail {

template <typename T>
struct SyncState {
    std::atomic<std::uint32_t> done{0};
    std::optional<T> result;
};

template <typename T>
inline DetachedTask sync_drive(Task<T> t, SyncState<T>& st) {
    st.result = co_await std::move(t);
    st.done.store(1, std::memory_order_release);
    st.done.notify_all();
}

}  // namespace detail

// Run a task to completion from a plain thread.  The completing resumption
// may happen on another thread (whoever wakes the last suspension); this
// thread parks on a one-shot flag meanwhile.
template <typename T>
T sync_wait(Task<T> t) {
    detail::SyncState<T> st;
    detail::sync_drive(std::move(t), st);
    while (st.done.load(std::memory_order_acquire) == 0) {
        st.done.wait(0, std::memory_order_acquire);
    }
    return std::move(*st.result);
}

// --- the awaitable queue -----------------------------------------------

template <typename Base = LcrqQueue>
class AsyncQueue {
  public:
    explicit AsyncQueue(const QueueOptions& opt = {}, std::size_t capacity = 0)
        : bq_(opt, capacity) {}
    explicit AsyncQueue(Base base, std::size_t capacity = 0)
        : bq_(std::move(base), capacity) {}

    AsyncQueue(const AsyncQueue&) = delete;
    AsyncQueue& operator=(const AsyncQueue&) = delete;
    ~AsyncQueue() {
        free_stack(consumer_waiters_);
        free_stack(producer_waiters_);
    }

    // co_await q.dequeue() -> std::optional<value_t>; nullopt only after
    // close() with the queue drained (same contract as wait_dequeue).
    Task<std::optional<value_t>> dequeue() {
        for (;;) {
            const std::uint32_t epoch = bq_.items_epoch();
            if (auto v = bq_.try_dequeue()) {
                wake(Side::kSpace);  // bounded producers may be parked
                co_return v;
            }
            if (bq_.closed()) {
                // Bounded post-close re-check, shared with the blocking
                // path: a zero-deadline wait drains or linearizes EMPTY.
                WaitResult r = bq_.wait_dequeue_for(0);
                if (r.ok()) {
                    wake(Side::kSpace);
                    co_return r.value;
                }
                co_return std::nullopt;
            }
            co_await ParkAwaiter(*this, consumer_waiters_, epoch, Side::kItems);
        }
    }

    // co_await q.enqueue(x) -> bool; false only once closed.  A full
    // refusal — the facade watermark or a bounded base ring — parks until
    // a dequeue frees space.  Goes through the non-counting try_admit so
    // one logical enqueue that retries after parking cannot record a shed
    // per retry (the async path never sheds: it parks or fails closed).
    Task<bool> enqueue(value_t x) {
        for (;;) {
            const std::uint32_t epoch = bq_.space_epoch();
            switch (bq_.try_admit(x)) {
                case Admission::kAccepted:
                    wake(Side::kItems);  // parked consumer frames, if any
                    co_return true;
                case Admission::kClosed:
                    co_return false;
                case Admission::kFull:
                    break;
            }
            co_await ParkAwaiter(*this, producer_waiters_, epoch, Side::kSpace);
        }
    }

    // Thread-side bridges for producers/consumers that are not coroutines.
    bool enqueue_sync(value_t x) {
        const bool ok = bq_.try_enqueue(x);
        if (ok) wake(Side::kItems);
        return ok;
    }
    std::optional<value_t> try_dequeue_sync() {
        auto v = bq_.try_dequeue();
        if (v) wake(Side::kSpace);
        return v;
    }

    void close() {
        bq_.close();
        wake(Side::kItems);
        wake(Side::kSpace);
    }
    bool closed() const noexcept { return bq_.closed(); }

    BlockingQueue<Base>& blocking() noexcept { return bq_; }

  private:
    enum class Side : std::uint8_t { kItems, kSpace };
    enum : int { kParked = 0, kResumed = 1, kAborted = 2 };

    struct WaiterNode {
        std::coroutine_handle<> handle{};
        std::atomic<int> state{kParked};
        // Two owners: the awaiter that pushed the node and the stack side
        // (waker pop_all or destructor).  Both must finish their state CAS
        // before the memory can go away — see the file comment.
        std::atomic<int> refs{2};
        WaiterNode* next = nullptr;

        void release() noexcept {
            if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
        }
    };

    struct WaiterStack {
        std::atomic<WaiterNode*> head{nullptr};

        void push(WaiterNode* n) noexcept {
            WaiterNode* h = head.load(std::memory_order_relaxed);
            do {
                n->next = h;
            } while (!head.compare_exchange_weak(h, n, std::memory_order_release,
                                                 std::memory_order_relaxed));
        }
        WaiterNode* pop_all() noexcept {
            return head.exchange(nullptr, std::memory_order_acq_rel);
        }
    };

    class ParkAwaiter {
      public:
        ParkAwaiter(AsyncQueue& q, WaiterStack& stack, std::uint32_t observed,
                    Side side) noexcept
            : q_(q), stack_(stack), observed_(observed), side_(side) {}

        bool await_ready() const noexcept { return changed(); }

        bool await_suspend(std::coroutine_handle<> h) {
            // Copy everything the post-push code needs into locals first:
            // the moment the node is reachable, a waker may win the state
            // CAS and resume (then destroy) the frame — and this awaiter
            // lives in the frame, so `this` is off-limits after the push.
            BlockingQueue<Base>& bq = q_.bq_;
            const Side side = side_;
            const std::uint32_t observed = observed_;
            auto* node = new WaiterNode;
            node->handle = h;
            stack_.push(node);
            // The fence pairs with the waker's seq_cst epoch bump: after
            // it, either we observe the bump (abort the park) or our push
            // is visible to the waker's pop_all.
            std::atomic_thread_fence(std::memory_order_seq_cst);
            if (epoch_changed(bq, side, observed)) {
                int expected = kParked;
                if (node->state.compare_exchange_strong(expected, kAborted,
                                                        std::memory_order_acq_rel)) {
                    node->release();
                    return false;  // resume inline; a future pop drops the
                                   // stack's reference
                }
                // A waker already claimed the node and will resume us.
            }
            node->release();
            return true;
        }

        void await_resume() const noexcept {}

      private:
        static bool epoch_changed(BlockingQueue<Base>& bq, Side side,
                                  std::uint32_t observed) noexcept {
            if (bq.closed()) return true;
            const std::uint32_t now =
                side == Side::kItems ? bq.items_epoch() : bq.space_epoch();
            return now != observed;
        }
        bool changed() const noexcept { return epoch_changed(q_.bq_, side_, observed_); }

        AsyncQueue& q_;
        WaiterStack& stack_;
        std::uint32_t observed_;
        Side side_;
    };

    // Resume every frame parked on `side` (call after publishing).  First
    // advance the epoch those frames watch: the facade's signal skips the
    // bump for uncounted waiters, so without this an awaiter that read the
    // epoch before the publish and pushed after our pop would park for
    // good.  Each pop drops the stack's reference; the node is freed once
    // the awaiter has dropped its own (aborted nodes — their frame already
    // resumed itself — only get the reference drop here).
    void wake(Side side) {
        WaiterStack& stack = side == Side::kItems ? consumer_waiters_ : producer_waiters_;
        if (side == Side::kItems) {
            bq_.advance_items_epoch();
        } else {
            bq_.advance_space_epoch();
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
        WaiterNode* n = stack.pop_all();
        while (n != nullptr) {
            WaiterNode* next = n->next;
            int expected = kParked;
            if (n->state.compare_exchange_strong(expected, kResumed,
                                                 std::memory_order_acq_rel)) {
                auto h = n->handle;
                n->release();
                h.resume();
            } else {
                n->release();
            }
            n = next;
        }
    }

    void free_stack(WaiterStack& stack) noexcept {
        WaiterNode* n = stack.pop_all();
        while (n != nullptr) {
            WaiterNode* next = n->next;
            n->release();
            n = next;
        }
    }

    BlockingQueue<Base> bq_;
    WaiterStack consumer_waiters_;
    WaiterStack producer_waiters_;
};

}  // namespace lcrq
