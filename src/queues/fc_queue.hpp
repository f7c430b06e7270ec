// Flat-combining queue (Hendler, Incze, Shavit, Tzafrir — SPAA 2010).
//
// Threads publish operation requests in per-thread publication records;
// whoever acquires the global lock becomes combiner and services every
// pending record, then releases.  Following the paper's evaluation (§5),
// the backing store is a linked list of arrays — a new tail array is
// allocated when the old one fills — manipulated only by the combiner, so
// it needs no internal synchronization.
//
// The publication list is the queue's ThreadTable of records
// (arch/thread_id.hpp): a thread's record is made on its first operation
// and passes with its dense id to the id's next owner, and the combiner
// walks the table with for_each.  Records are never aged out; with dense
// recycled thread ids the walk is bounded by the maximum concurrency ever
// seen, which matches the benchmark setting the algorithm was evaluated
// in.  A record the combiner has not seen yet is not lost: its owner keeps
// trying the lock and, once it holds it, serves its own record.
#pragma once

#include <atomic>
#include <cassert>
#include <optional>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "arch/thread_id.hpp"
#include "queues/queue_common.hpp"
#include "queues/two_lock_queue.hpp"

namespace lcrq {

// Sequential segmented FIFO used under the flat-combining lock.
class SegmentedSeqQueue {
  public:
    static constexpr std::size_t kSegCells = 4096;

    SegmentedSeqQueue() {
        head_seg_ = tail_seg_ = check_alloc(new (std::nothrow) Segment);
    }
    ~SegmentedSeqQueue() {
        Segment* s = head_seg_;
        while (s != nullptr) {
            Segment* next = s->next;
            delete s;
            s = next;
        }
    }
    SegmentedSeqQueue(const SegmentedSeqQueue&) = delete;
    SegmentedSeqQueue& operator=(const SegmentedSeqQueue&) = delete;

    void push(value_t v) {
        if (tail_idx_ == kSegCells) {
            auto* seg = check_alloc(new (std::nothrow) Segment);
            tail_seg_->next = seg;
            tail_seg_ = seg;
            tail_idx_ = 0;
        }
        tail_seg_->cells[tail_idx_++] = v;
    }

    std::optional<value_t> pop() {
        if (empty()) return std::nullopt;
        if (head_idx_ == kSegCells) {
            Segment* drained = head_seg_;
            head_seg_ = head_seg_->next;
            head_idx_ = 0;
            delete drained;
            // A drained head that was also the tail had head_idx_ ==
            // tail_idx_ == kSegCells and returned EMPTY above.  The next
            // segment holds an item: push links a segment only to fill
            // its first cell.
            assert(head_seg_ != nullptr);
        }
        return head_seg_->cells[head_idx_++];
    }

    bool empty() const noexcept {
        return head_seg_ == tail_seg_ && head_idx_ == tail_idx_;
    }

  private:
    struct Segment {
        value_t cells[kSegCells];
        Segment* next = nullptr;
    };

    Segment* head_seg_;
    Segment* tail_seg_;
    std::size_t head_idx_ = 0;
    std::size_t tail_idx_ = 0;
};

class FcQueue {
  public:
    static constexpr const char* kName = "fc-queue";

    explicit FcQueue(const QueueOptions& = {}) {}

    FcQueue(const FcQueue&) = delete;
    FcQueue& operator=(const FcQueue&) = delete;

    void enqueue(value_t x) {
        Record& rec = records_.local();
        rec.arg = x;
        rec.is_enqueue = true;
        rec.pending.store(true, std::memory_order_release);
        run_or_wait(rec);
    }

    std::optional<value_t> dequeue() {
        Record& rec = records_.local();
        rec.is_enqueue = false;
        rec.pending.store(true, std::memory_order_release);
        run_or_wait(rec);
        if (rec.result == kBottom) return std::nullopt;
        return rec.result;
    }

  private:
    struct alignas(kCacheLineSize) Record {
        std::atomic<bool> pending{false};
        bool is_enqueue = false;
        value_t arg = kBottom;
        value_t result = kBottom;
    };

    void run_or_wait(Record& rec) {
        SpinWait waiter;
        while (rec.pending.load(std::memory_order_acquire)) {
            if (lock_->try_lock()) {
                combine();
                lock_->unlock();
                // Our own request was either serviced by us or by the
                // previous combiner; loop re-checks.
                continue;
            }
            waiter.spin();
        }
    }

    void combine() {
        stats::count(stats::Event::kCombinerAcquire);
        // A couple of scan rounds per acquisition: later arrivals during
        // the first pass get picked up cheaply (flat combining's whole
        // point is batching under one lock acquisition).
        unsigned combined = 0;
        for (int round = 0; round < 2; ++round) {
            records_.for_each([&](Record& r) {
                if (!r.pending.load(std::memory_order_acquire)) return;
                if (r.is_enqueue) {
                    store_.push(r.arg);
                    r.result = kBottom;
                } else {
                    const auto v = store_.pop();
                    r.result = v.has_value() ? *v : kBottom;
                }
                ++combined;
                r.pending.store(false, std::memory_order_release);
            });
        }
        stats::count(stats::Event::kCombine, combined);
    }

    CacheAligned<SpinLock, kDestructivePairSize> lock_;
    SegmentedSeqQueue store_;
    // Every operation reads its entry pointer here, so the table starts
    // on a line pair of its own, apart from the store the combiner writes.
    alignas(kDestructivePairSize) ThreadTable<Record> records_;
};

}  // namespace lcrq
