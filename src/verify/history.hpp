// Concurrent history recording.
//
// The linearizability tests run real threads against a queue while each
// thread logs (invoke timestamp, operation, result, response timestamp)
// into a private buffer; after joining, the merged log is a *complete
// history* in the Herlihy–Wing sense (every invocation has a response,
// because threads finish their operations before the join).  The checkers
// in lin_check.hpp then decide (exactly, for small histories) or refute
// (necessary conditions, for large ones) linearizability against the
// sequential FIFO queue specification.
//
// Timestamps are raw TSC ticks: globally meaningful on invariant-TSC x86,
// and two orders of magnitude cheaper than clock_gettime, which matters
// because timestamping must not serialize the very races being tested.
// They are fenced (rdtsc_fenced): a bare rdtsc may execute before the
// operation's last loads complete, and a response stamped too early can
// fall below the invoke stamp of the operation it observed.
//
// The recording is spec-agnostic: the same History feeds the total-FIFO
// checkers and the per-producer-FIFO ones (check_queue_*_per_lane, for
// queues tagged QueueInfo::per_lane_fifo) — the producer identity each
// relaxed checker needs is already in Operation::thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "queues/queue_common.hpp"
#include "util/timing.hpp"

namespace lcrq::verify {

// Result slot of a dequeue that returned EMPTY.
inline constexpr value_t kEmpty = kBottom;

struct Operation {
    enum class Kind : std::uint8_t { kEnqueue, kDequeue };

    Kind kind;
    int thread;
    // kEnqueue: the enqueued value.  kDequeue: the dequeued value or kEmpty.
    value_t value;
    std::uint64_t invoke;    // TSC at invocation
    std::uint64_t response;  // TSC at response
};

using History = std::vector<Operation>;

// One per worker thread; merge after joining.
class ThreadLog {
  public:
    explicit ThreadLog(int thread, std::size_t reserve = 0) : thread_(thread) {
        ops_.reserve(reserve);
    }

    // Wrap a queue operation, timestamping around it.
    template <typename Q>
    void enqueue(Q& q, value_t v) {
        const std::uint64_t t0 = rdtsc_fenced();
        q.enqueue(v);
        const std::uint64_t t1 = rdtsc_fenced();
        ops_.push_back({Operation::Kind::kEnqueue, thread_, v, t0, t1});
    }

    template <typename Q>
    bool dequeue(Q& q) {
        const std::uint64_t t0 = rdtsc_fenced();
        const auto v = q.dequeue();
        const std::uint64_t t1 = rdtsc_fenced();
        ops_.push_back({Operation::Kind::kDequeue, thread_,
                        v.has_value() ? *v : kEmpty, t0, t1});
        return v.has_value();
    }

    // Bulk operations record one per-item Operation per accepted item, all
    // sharing the batch's [invoke, response] window: a bulk op linearizes as
    // the sequence of its item ops, each free to take any point inside the
    // window, so the checkers need no new operation kinds.  Returns the
    // number of items the queue accepted (always items.size() for
    // void-returning implementations, which complete the whole batch).
    template <typename Q>
    std::size_t enqueue_bulk(Q& q, std::span<const value_t> items) {
        const std::uint64_t t0 = rdtsc_fenced();
        std::size_t n;
        if constexpr (std::is_void_v<decltype(q.enqueue_bulk(items))>) {
            q.enqueue_bulk(items);
            n = items.size();
        } else {
            n = q.enqueue_bulk(items);
        }
        const std::uint64_t t1 = rdtsc_fenced();
        for (std::size_t i = 0; i < n; ++i) {
            ops_.push_back({Operation::Kind::kEnqueue, thread_, items[i], t0, t1});
        }
        return n;
    }

    // Records one dequeue Operation per item; an empty batch records a
    // single EMPTY dequeue (the op did observe the queue empty).
    template <typename Q>
    std::size_t dequeue_bulk(Q& q, value_t* out, std::size_t max) {
        const std::uint64_t t0 = rdtsc_fenced();
        const std::size_t n = q.dequeue_bulk(out, max);
        const std::uint64_t t1 = rdtsc_fenced();
        if (n == 0) {
            ops_.push_back({Operation::Kind::kDequeue, thread_, kEmpty, t0, t1});
            return 0;
        }
        for (std::size_t i = 0; i < n; ++i) {
            ops_.push_back({Operation::Kind::kDequeue, thread_, out[i], t0, t1});
        }
        return n;
    }

    const History& ops() const noexcept { return ops_; }
    // For tests that synthesize events (e.g. fault injection around a real
    // queue) alongside recorded ones.
    History& ops_mutable() noexcept { return ops_; }
    History take() noexcept { return std::move(ops_); }

  private:
    int thread_;
    History ops_;
};

inline History merge(std::vector<ThreadLog>& logs) {
    History all;
    std::size_t total = 0;
    for (const auto& l : logs) total += l.ops().size();
    all.reserve(total);
    for (auto& l : logs) {
        History h = l.take();
        all.insert(all.end(), h.begin(), h.end());
    }
    return all;
}

}  // namespace lcrq::verify
