// Dense, reusable thread indices.
//
// Several algorithms need per-thread state tied to a queue instance: the
// combining queues (CC/H/FC) keep a publication or list node per thread,
// and a hazard domain keeps one record per thread.  Indexing those arrays
// by a dense thread id — handed out on first use and *recycled when the
// thread exits* — lets tests spawn thousands of short-lived threads without
// growing per-queue state, which is sized for kMaxThreads concurrent
// threads.
#pragma once

#include <atomic>
#include <cstddef>

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

}  // namespace lcrq
