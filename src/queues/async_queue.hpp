// C++20 coroutine facade over BlockingQueue: co_await-able enqueue and
// dequeue for servers that multiplex many logical consumers onto a few OS
// threads (the thread-per-request model the blocking facade serves does
// not scale to millions of idle connections; parked coroutine frames do).
//
// Layering: AsyncQueue owns a BlockingQueue, and a suspended frame is one
// more registered waiter of that facade's EventCount, exactly like a
// sleeping thread: it registers (items for dequeue, space for bounded
// enqueue), snapshots the epoch, re-checks with the nonblocking op, and
// only then parks, unless the epoch has moved.  So every signal the
// facade sends — an admission, a dequeue freeing space, close(), whether
// it comes from a frame or from a thread using blocking() — resumes the
// parked frames, and threads and frames share one lost-wakeup argument
// (blocking_queue.hpp, EventCount).  A resumed frame re-runs its retry
// loop, so spurious wakeups are harmless and the protocol needs no
// per-item handoff.  Unlike a sleeping thread a frame has no slice
// timeout: a notifier killed between its bump and its wakes (kBlockNotify)
// leaves the frames parked until the next signal on that side.
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

template <FacadeBase Base = LcrqQueue>
class AsyncQueue {
  public:
    explicit AsyncQueue(const QueueOptions& opt = {}, std::size_t capacity = 0)
        : bq_(opt, capacity) {}
    explicit AsyncQueue(Base base, std::size_t capacity = 0)
        : bq_(std::move(base), capacity) {}

    AsyncQueue(const AsyncQueue&) = delete;
    AsyncQueue& operator=(const AsyncQueue&) = delete;

    // co_await q.dequeue() -> std::optional<value_t>; nullopt only after
    // close() with the queue drained (same contract as wait_dequeue).
    Task<std::optional<value_t>> dequeue() {
        for (;;) {
            if (auto v = bq_.try_dequeue()) co_return v;
            // Bounded post-close re-check, shared with the blocking path: a
            // zero-deadline wait drains or linearizes EMPTY.
            if (bq_.closed()) co_return bq_.wait_dequeue_for(0).to_optional();
            detail::WaiterGuard registered(bq_.items_ec_, detail::Waiter::kFrame);
            const std::uint32_t observed = bq_.items_ec_.prepare();
            if (auto v = bq_.try_dequeue()) co_return v;
            if (!bq_.closed()) co_await bq_.items_ec_.park(observed);
        }
    }

    // co_await q.enqueue(x) -> bool; false only once closed.  A full
    // refusal — the facade watermark or a bounded base ring — parks until
    // a dequeue frees space.  Goes through the non-counting try_admit, so
    // the async path never sheds: it parks or fails closed.
    Task<bool> enqueue(value_t x) {
        for (;;) {
            EnqueueResult r = bq_.try_admit(x);
            if (r != EnqueueResult::kFull) co_return r == EnqueueResult::kOk;
            detail::WaiterGuard registered(bq_.space_ec_, detail::Waiter::kFrame);
            const std::uint32_t observed = bq_.space_ec_.prepare();
            r = bq_.try_admit(x);
            if (r != EnqueueResult::kFull) co_return r == EnqueueResult::kOk;
            co_await bq_.space_ec_.park(observed);
        }
    }

    void close() { bq_.close(); }
    bool closed() const noexcept { return bq_.closed(); }

    // The thread side: its admissions, dequeues and close() resume parked
    // frames like their coroutine counterparts.
    BlockingQueue<Base>& blocking() noexcept { return bq_; }

  private:
    BlockingQueue<Base> bq_;
};

}  // namespace lcrq
