// Dense, reusable thread indices, and the one per-thread table over them.
//
// Per-thread state is indexed by a dense thread id — handed out on first
// use and *recycled when the thread exits* — so tests can spawn thousands
// of short-lived threads without growing it: it is sized for kMaxThreads
// concurrent threads.  The combining queues (CC/H/FC), multilane presence
// slots and wCQ help slots index their own arrays by it; ThreadTable below
// holds the state that must outlive its thread, for its four users: a
// hazard domain's records (hazard/hazard_pointers.hpp), the event
// counters' blocks (arch/counters.hpp), a blocking facade's size tallies
// (queues/blocking_queue.hpp) and an SCQ-family list's kept-slot caches
// (queues/linked_segments.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <new>

#include "arch/cacheline.hpp"

namespace lcrq {

inline constexpr std::size_t kMaxThreads = 512;

namespace detail {

class ThreadIdPool {
  public:
    static ThreadIdPool& instance() {
        static ThreadIdPool pool;
        return pool;
    }

    std::size_t acquire() noexcept {
        for (;;) {
            for (std::size_t i = 0; i < kMaxThreads; ++i) {
                bool expected = false;
                if (!used_[i].load(std::memory_order_relaxed) &&
                    used_[i].compare_exchange_strong(expected, true,
                                                     std::memory_order_acq_rel)) {
                    return i;
                }
            }
            // All ids in use: more than kMaxThreads concurrent threads.
            // Spin until one exits rather than corrupting shared arrays.
        }
    }

    void release(std::size_t id) noexcept {
        used_[id].store(false, std::memory_order_release);
    }

  private:
    std::atomic<bool> used_[kMaxThreads] = {};
};

struct ThreadIdHolder {
    std::size_t id = ThreadIdPool::instance().acquire();
    ~ThreadIdHolder() { ThreadIdPool::instance().release(id); }
};

}  // namespace detail

// This thread's dense index in [0, kMaxThreads).  Stable for the thread's
// lifetime; recycled after exit.
inline std::size_t thread_index() noexcept {
    thread_local detail::ThreadIdHolder holder;
    return holder.id;
}

// Upper bound of the dense-id space: thread_index() < max_threads() always
// holds, so per-thread arrays and modular lane mappings (multilane.hpp) can
// size against it instead of hardcoding kMaxThreads.
constexpr std::size_t max_threads() noexcept { return kMaxThreads; }

// One T per dense thread id, made by its thread on first use.  An entry
// outlives its thread and passes with the id to the id's next owner, so
// ThreadIdPool's one-owner-per-id rule keeps it single-writer and an
// exited thread's state stays visible.  for_each visits the entries below
// the high-water mark, concurrently with their owners.
template <typename T>
class ThreadTable {
  public:
    ThreadTable() = default;
    ~ThreadTable() {
        for_each([](T& e) { delete &e; });
    }

    ThreadTable(const ThreadTable&) = delete;
    ThreadTable& operator=(const ThreadTable&) = delete;

    // The calling thread's entry.
    T& local() {
        const std::size_t id = thread_index();
        // Only this id's owners ever store here, and ThreadIdPool orders
        // each owner after the last, so a relaxed load sees the entry.
        T* e = entries_[id].load(std::memory_order_relaxed);
        return e != nullptr ? *e : attach(id);
    }

    // Visit every entry made so far.  seq_cst, to pair with attach: a
    // visit that follows a store the owner made through its entry sees
    // the entry.
    template <typename F>
    void for_each(F&& f) const {
        const std::size_t n = high_water_.load(std::memory_order_seq_cst);
        for (std::size_t i = 0; i < n; ++i) {
            if (T* e = entries_[i].load(std::memory_order_seq_cst)) f(*e);
        }
    }

    // One past the highest id that has made an entry.
    std::size_t high_water() const noexcept {
        return high_water_.load(std::memory_order_relaxed);
    }

  private:
    // At most once per thread id, so kept out of the callers' hot paths.
    [[gnu::noinline]] T& attach(std::size_t id) {
        T* e = check_alloc(new (std::nothrow) T);
        // Raise the high-water mark, then publish the entry, both seq_cst
        // and both before the owner first uses it.  Plain atomics, so no
        // event counter moves.
        std::size_t hw = high_water_.load(std::memory_order_seq_cst);
        while (hw <= id && !high_water_.compare_exchange_weak(hw, id + 1,
                                                              std::memory_order_seq_cst)) {
        }
        entries_[id].store(e, std::memory_order_seq_cst);
        return *e;
    }

    std::atomic<T*> entries_[kMaxThreads] = {};
    std::atomic<std::size_t> high_water_{0};
};

}  // namespace lcrq
