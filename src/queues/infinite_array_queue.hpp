// The infinite-array queue of Figure 2 — the "simple but unrealistic"
// algorithm LCRQ is derived from.
//
//   enqueue(x): t := F&A(tail, 1); if SWAP(Q[t], x) = ⊥ done, else retry.
//   dequeue():  h := F&A(head, 1); x := SWAP(Q[h], ⊤);
//               if x ≠ ⊥ return x; if tail ≤ h+1 return EMPTY; retry.
//
// It is a linearizable FIFO queue, but (a) needs an unbounded array and
// (b) can livelock (a dequeuer keeps poisoning the cell its enqueuer is
// about to use).  We implement it faithfully — the "infinite" array is a
// directory of lazily-allocated segments, and cells are never reused — as
// executable documentation and as a differential-testing oracle for CRQ
// behaviour.  Not for production use; see lcrq.hpp for that.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>

#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

class InfiniteArrayQueue {
  public:
    static constexpr const char* kName = "infinite-array";
    // 2^16 cells per segment, 2^16 segments: 2^32 lifetime operations.
    static constexpr unsigned kSegOrder = 16;
    static constexpr std::size_t kSegCells = std::size_t{1} << kSegOrder;
    static constexpr std::size_t kMaxSegments = std::size_t{1} << 16;

    explicit InfiniteArrayQueue(const QueueOptions& = {}) {
        directory_ =
            check_alloc(new (std::nothrow) std::atomic<Segment*>[kMaxSegments]());
    }

    ~InfiniteArrayQueue() {
        for (std::size_t i = 0; i < kMaxSegments; ++i) {
            delete directory_[i].load(std::memory_order_relaxed);
        }
        delete[] directory_;
    }

    InfiniteArrayQueue(const InfiniteArrayQueue&) = delete;
    InfiniteArrayQueue& operator=(const InfiniteArrayQueue&) = delete;

    void enqueue(value_t x) {
        for (;;) {
            const std::uint64_t t = HardwareFaa::fetch_add(*tail_, 1);
            if (counted_swap(cell(t), x) == kBottom) return;
            stats::count(stats::Event::kRingRetry);
        }
    }

    std::optional<value_t> dequeue() {
        for (;;) {
            const std::uint64_t h = HardwareFaa::fetch_add(*head_, 1);
            const value_t x = counted_swap(cell(h), kTop);
            if (x != kBottom) return x;
            // The cell is poisoned: the matching enqueue can no longer
            // complete here.  Empty iff tail ≤ h + 1.
            if (tail_->load(std::memory_order_seq_cst) <= h + 1) return std::nullopt;
            stats::count(stats::Event::kRingRetry);
        }
    }

    std::uint64_t head_index() const noexcept {
        return head_->load(std::memory_order_seq_cst);
    }
    std::uint64_t tail_index() const noexcept {
        return tail_->load(std::memory_order_seq_cst);
    }

  private:
    struct Segment {
        std::atomic<value_t> cells[kSegCells];
        Segment() {
            for (auto& c : cells) c.store(kBottom, std::memory_order_relaxed);
        }
    };

    std::atomic<value_t>& cell(std::uint64_t index) {
        const std::size_t seg = index >> kSegOrder;
        Segment* s = directory_[seg].load(std::memory_order_acquire);
        if (s == nullptr) {
            std::lock_guard lock(grow_mu_);
            s = directory_[seg].load(std::memory_order_acquire);
            if (s == nullptr) {
                s = check_alloc(new (std::nothrow) Segment);
                directory_[seg].store(s, std::memory_order_release);
            }
        }
        return s->cells[index & (kSegCells - 1)];
    }

    CacheAligned<std::atomic<std::uint64_t>> head_{0};
    CacheAligned<std::atomic<std::uint64_t>> tail_{0};
    std::atomic<Segment*>* directory_;
    std::mutex grow_mu_;
};

}  // namespace lcrq
