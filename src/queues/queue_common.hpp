// Shared vocabulary of the queue implementations.
//
// Every queue in this library implements the paper's object (§3): a FIFO
// multi-producer/multi-consumer queue of 64-bit values with
//   enqueue(x)  — append x
//   dequeue()   — remove and return the first item, or EMPTY.
//
// Values: the paper reserves one value (⊥) that may never be enqueued; the
// infinite-array queue reserves a second (⊤).  Both sentinels live at the
// top of the value space.  user-facing typed queues (queues/typed_queue.hpp)
// box arbitrary T behind pointers, which never collide with the sentinels.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

namespace lcrq {

using value_t = std::uint64_t;

// ⊥ — "cell empty".  May not be enqueued.
inline constexpr value_t kBottom = ~value_t{0};
// ⊤ — "cell poisoned by a dequeuer" (infinite-array queue only).
inline constexpr value_t kTop = ~value_t{0} - 1;

// Largest enqueueable value.
inline constexpr value_t kMaxValue = ~value_t{0} - 2;

constexpr bool is_enqueueable(value_t v) noexcept { return v <= kMaxValue; }

// Rings of at least this order (R >= 2^14) are worth a hugepage mapping
// when QueueOptions::huge_segments asks for one: below it a ring fits in
// a few 4 KiB pages and the 2 MiB rounding would waste more memory than
// the dTLB entries it saves.
inline constexpr unsigned kHugeMinRingOrder = 14;

// Result of an enqueue into a bounded segment (CRQ, SCQ, wCQ and their
// rings).  kFull: every SCQ/wCQ slot index is in flight (bounded-queue
// backpressure; CRQ never reports it).  kClosed: the segment was closed —
// a CRQ tantrum, or close() by the list layer or the caller — and every
// later enqueue on it returns kClosed.  The list layer
// (linked_segments.hpp) appends a fresh segment on either.
enum class EnqueueResult { kOk, kFull, kClosed };
// SCQ's earlier name for the same enum, still spelled so in perfbench/.
using ScqPutResult = EnqueueResult;

// Outcome of a segment's batched enqueue: how many items from the front of
// the batch landed, and why it stopped (kOk only when all of them did).
struct BulkPut {
    std::size_t done;
    EnqueueResult status;
};

// The duck-typed interface all queues implement.
template <typename Q>
concept ConcurrentQueue = requires(Q q, value_t v) {
    { q.enqueue(v) } -> std::same_as<void>;
    { q.dequeue() } -> std::same_as<std::optional<value_t>>;
    { Q::kName } -> std::convertible_to<const char*>;
};

// Queues with first-class batch operations.  Semantically a bulk op is the
// sequence of its per-item ops (one linearization point per item, in batch
// order); what the interface buys is amortization — a native implementation
// claims all k ring tickets with one F&A instead of k.
//   enqueue_bulk  appends every item, in order.
//   dequeue_bulk  removes up to `max` items into `out`, returning the
//                 count; 0 means the queue was observed empty.  Fewer than
//                 `max` items are returned only on an empty observation.
template <typename Q>
concept BulkConcurrentQueue =
    ConcurrentQueue<Q> &&
    requires(Q q, std::span<const value_t> in, value_t* out, std::size_t max) {
        { q.enqueue_bulk(in) } -> std::same_as<void>;
        { q.dequeue_bulk(out, max) } -> std::same_as<std::size_t>;
    };

// Loop fallbacks: the bulk contract, one item at a time.  Baselines without
// a native batch path get these, so sweeps can compare amortized vs not.
template <ConcurrentQueue Q>
void enqueue_bulk_fallback(Q& q, std::span<const value_t> items) {
    for (value_t v : items) q.enqueue(v);
}

template <ConcurrentQueue Q>
std::size_t dequeue_bulk_fallback(Q& q, value_t* out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
        const auto v = q.dequeue();
        if (!v.has_value()) break;
        out[n++] = *v;
    }
    return n;
}

// Uniform entry points: native batch path when the queue has one, loop
// fallback otherwise.
template <ConcurrentQueue Q>
void bulk_enqueue(Q& q, std::span<const value_t> items) {
    if constexpr (BulkConcurrentQueue<Q>) {
        q.enqueue_bulk(items);
    } else {
        enqueue_bulk_fallback(q, items);
    }
}

template <ConcurrentQueue Q>
std::size_t bulk_dequeue(Q& q, value_t* out, std::size_t max) {
    if constexpr (BulkConcurrentQueue<Q>) {
        return q.dequeue_bulk(out, max);
    } else {
        return dequeue_bulk_fallback(q, out, max);
    }
}

// Adapter conferring the bulk interface on any queue via the loop fallback,
// so generic code (benches, tests) can require BulkConcurrentQueue and
// still sweep every baseline.
template <ConcurrentQueue Q>
class BulkAdapter {
  public:
    static constexpr const char* kName = Q::kName;

    template <typename... Args>
    explicit BulkAdapter(Args&&... args) : q_(std::forward<Args>(args)...) {}

    void enqueue(value_t x) { q_.enqueue(x); }
    std::optional<value_t> dequeue() { return q_.dequeue(); }
    void enqueue_bulk(std::span<const value_t> items) {
        enqueue_bulk_fallback(q_, items);
    }
    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        return dequeue_bulk_fallback(q_, out, max);
    }

    Q& base() noexcept { return q_; }

  private:
    Q q_;
};

// Construction-time options shared by the implementations; each queue uses
// the subset that applies to it.
struct QueueOptions {
    // log2 of the CRQ ring size (paper default: 17 → R = 131072; library
    // default is laptop-sized and overridable everywhere).
    unsigned ring_order = 12;
    // Close the CRQ after this many failed enqueue rounds (starving()).
    unsigned starvation_limit = 16;
    // Iterations a dequeuer spin-waits for a matching in-flight enqueuer
    // before performing an empty transition (§4.1.1); 0 disables.
    unsigned spin_wait_iters = 64;
    // Cluster-handoff timeout for the hierarchical variants, in ns (§4.1.1
    // uses 100 µs).  0 = claim a foreign segment immediately (ablation).
    std::uint64_t cluster_timeout_ns = 100'000;
    // Hierarchical ablation knob: when false, a foreign-cluster thread
    // waits for the tag *forever* instead of claiming after the timeout —
    // the cohort-lock behaviour the paper explicitly avoids ("even if the
    // CAS fails").  Exists so the injection suite's blocking probe can
    // demonstrate that the timeout-proceed path is what keeps the
    // hierarchical variants nonblocking.
    bool cluster_proceed_on_timeout = true;
    // Number of clusters the hierarchical algorithms partition threads
    // into.  0 = use the discovered topology.
    int clusters = 0;
    // Capacity (log2) of the bounded baseline rings.
    unsigned bounded_order = 16;
    // Max ring segments the list queues (LCRQ/LSCQ/LwCQ) keep cached for
    // reuse; overflow falls back to the allocator.  0 disables pooling.
    std::size_t segment_pool_cap = 16;
    // Opt-in (the registry's -huge knob): back ring slabs of at least
    // kHugeMinRingOrder with MADV_HUGEPAGE mappings so a big ring's node
    // array sits on a handful of dTLB entries instead of thousands of
    // 4 KiB ones.  Transparently falls back to plain allocation when THP
    // is unavailable (see topology/mem_policy.hpp).
    bool huge_segments = false;
    // Lane count for the multilane front-end (multilane.hpp).  0 = auto:
    // one lane per hardware thread, at least 2 so the lane machinery is
    // exercised even on a single-CPU host.
    std::size_t lanes = 0;
    // wCQ (wcq.hpp): failed fast-path rounds before an operation publishes
    // a helping record.  0 forces every contended operation slow (tests).
    unsigned wcq_patience = 64;
    // wCQ ablation knob: peer helping on/off.  Off, a killed thread's
    // published request is never finished by a peer — the killed-peer
    // injection suite asserts exactly this difference.
    bool wcq_helping = true;
};

}  // namespace lcrq
