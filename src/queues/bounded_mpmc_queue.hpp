// Bounded MPMC ring with per-cell sequence numbers (Vyukov's classic
// design) — the modern representative of the CAS-based cyclic-array
// queue family the paper's related work surveys (Tsigas–Zhang, Colvin–
// Groves, Shafiei): head and tail are CAS hot spots, so it exhibits the
// CAS-retry behaviour the paper contrasts with F&A, while the per-cell
// sequence protocol plays the role CRQ's (safe, idx) protocol plays.
//
// Unlike CRQ it is bounded and not lock-free (a stalled producer that won
// its ticket blocks the consumer of that cell), which is exactly why LCRQ
// needs the tantrum-queue close mechanism; the ablation benches use this
// queue to show both effects.  Vyukov's original returns "empty" whenever
// the head cell is unpublished, which is not linearizable (a later enqueue
// may already have completed); our dequeue reports EMPTY only when no
// enqueue ticket is outstanding, waiting out mid-publish producers — the
// linearizability test suite caught exactly this distinction.
//
// try_enqueue() answers kFull when the ring is full; enqueue() spins
// until a slot frees (benchmarks size the ring so it never does).
#pragma once

#include <atomic>
#include <optional>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

class BoundedMpmcQueue {
  public:
    static constexpr const char* kName = "bounded-mpmc";

    explicit BoundedMpmcQueue(const QueueOptions& opt = {})
        : size_(std::size_t{1} << opt.bounded_order), mask_(size_ - 1) {
        cells_ = check_alloc(aligned_array_alloc<Cell>(size_));
        for (std::size_t i = 0; i < size_; ++i) {
            new (&cells_[i]) Cell();
            cells_[i].seq.store(i, std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    ~BoundedMpmcQueue() { aligned_array_free(cells_); }

    BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
    BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

    EnqueueResult try_enqueue(value_t x) {
        std::uint64_t pos = tail_->load(std::memory_order_relaxed);
        for (;;) {
            Cell& cell = cells_[pos & mask_];
            const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
            const auto diff =
                static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
            if (diff == 0) {
                stats::count(stats::Event::kCas);
                if (tail_->compare_exchange_weak(pos, pos + 1,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
                    cell.value = x;
                    cell.seq.store(pos + 1, std::memory_order_release);
                    return EnqueueResult::kOk;
                }
                stats::count(stats::Event::kCasFailure);
            } else if (diff < 0) {
                return EnqueueResult::kFull;  // the cell still holds a lap-old item
            } else {
                pos = tail_->load(std::memory_order_relaxed);
            }
        }
    }

    void enqueue(value_t x) {
        SpinWait waiter;
        while (try_enqueue(x) != EnqueueResult::kOk) waiter.spin();
    }

    std::optional<value_t> dequeue() {
        std::uint64_t pos = head_->load(std::memory_order_relaxed);
        SpinWait waiter;
        for (;;) {
            Cell& cell = cells_[pos & mask_];
            const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
            const auto diff = static_cast<std::int64_t>(seq) -
                              static_cast<std::int64_t>(pos + 1);
            if (diff == 0) {
                stats::count(stats::Event::kCas);
                if (head_->compare_exchange_weak(pos, pos + 1,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
                    const value_t v = cell.value;
                    cell.seq.store(pos + size_, std::memory_order_release);
                    return v;
                }
                stats::count(stats::Event::kCasFailure);
            } else if (diff < 0) {
                // The cell is not published.  Report EMPTY only when no
                // enqueue ticket is outstanding (head == tail): if a later
                // enqueue already completed while an earlier ticket-holder
                // is still publishing, EMPTY would not be linearizable —
                // the queue observably holds that later item.  Waiting out
                // the publisher is this design's inherent blocking spot.
                if (tail_->load(std::memory_order_seq_cst) == pos) {
                    return std::nullopt;
                }
                waiter.spin();
                pos = head_->load(std::memory_order_relaxed);
            } else {
                pos = head_->load(std::memory_order_relaxed);
            }
        }
    }

    std::size_t capacity() const noexcept { return size_; }
    // The waiters' read-only peek: no enqueue ticket is outstanding.
    bool looks_empty() const noexcept {
        return tail_->load(std::memory_order_acquire) ==
               head_->load(std::memory_order_acquire);
    }

  private:
    struct alignas(kCacheLineSize) Cell {
        std::atomic<std::uint64_t> seq{0};
        value_t value{kBottom};
    };

    const std::size_t size_;
    const std::size_t mask_;
    Cell* cells_;
    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> head_{0};
    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> tail_{0};
};

}  // namespace lcrq
