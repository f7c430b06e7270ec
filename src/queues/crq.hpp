// CRQ — the Concurrent Ring Queue (paper §4.1, Figure 3).
//
// A bounded *tantrum queue*: a linearizable FIFO queue whose enqueue may
// nondeterministically refuse and return CLOSED, after which every enqueue
// returns CLOSED.  LCRQ (lcrq.hpp) links CRQs into an unbounded queue.
//
// State:
//   head, tail : 64-bit monotone indices; index i addresses ring node
//                i mod R.  tail's MSB is the CLOSED bit.
//   ring node  : logically (safe bit, 63-bit index, 64-bit value), stored
//                as two adjacent 64-bit words updated with CAS2
//                (lock cmpxchg16b).  Node u starts as (1, u, ⊥).
//
// Operations obtain an index with one F&A on head or tail — the only
// contended access in the common case — and then synchronize on the ring
// node via CAS2 transitions:
//   dequeue transition  (s, h, x) -> (s, h+R, ⊥)   deq_h removes x
//   empty transition    (s, i, ⊥) -> (s, h+R, ⊥)   deq_h blocks enq_h..
//   unsafe transition   (s, i, x) -> (0, i, x)     deq_h warns enq_h (i<h)
//   enqueue transition  (s, i, ⊥) -> (1, t, x)     enq_t stores x, only if
//                        i ≤ t and (s = 1 or head ≤ t)
//
// The F&A policy parameter selects hardware `lock xadd` (LCRQ) or a CAS
// loop (LCRQ-CAS, §5); the Padded parameter controls one-node-per-cache-
// line layout (paper default) vs packed 16-byte nodes (ablation).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/inject.hpp"
#include "arch/primitives.hpp"
#include "queues/queue_common.hpp"
#include "topology/mem_policy.hpp"
#include "topology/topology.hpp"

namespace lcrq {

namespace detail {

// A ring node's two words.  `si` packs (safe << 63) | idx; `val` is the
// value or ⊥.  The pair overlays a U128 for CAS2: si is the low word.
struct alignas(16) CrqCell {
    std::atomic<std::uint64_t> si;
    std::atomic<std::uint64_t> val;

    U128* as_u128() noexcept { return reinterpret_cast<U128*>(this); }
};
static_assert(sizeof(CrqCell) == 16);
static_assert(offsetof(CrqCell, si) == 0 && offsetof(CrqCell, val) == 8);

template <bool Padded>
struct CrqNode;

template <>
struct alignas(kCacheLineSize) CrqNode<true> {
    CrqCell cell;

  private:
    char pad_[kCacheLineSize - sizeof(CrqCell)];
};

template <>
struct alignas(16) CrqNode<false> {
    CrqCell cell;
};

static_assert(sizeof(CrqNode<true>) == kCacheLineSize);
static_assert(sizeof(CrqNode<false>) == 16);

inline constexpr std::uint64_t kMsb = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kIdxMask = kMsb - 1;

constexpr std::uint64_t make_si(bool safe, std::uint64_t idx) noexcept {
    return (safe ? kMsb : 0) | idx;
}
constexpr bool si_safe(std::uint64_t si) noexcept { return (si & kMsb) != 0; }
constexpr std::uint64_t si_idx(std::uint64_t si) noexcept { return si & kIdxMask; }

}  // namespace detail

template <class Faa = HardwareFaa, bool Padded = true>
class Crq {
  public:
    static constexpr const char* kName = "crq";
    using Node = detail::CrqNode<Padded>;

    // Construct an empty CRQ of 2^opt.ring_order nodes, optionally seeded
    // with one item (LCRQ appends new CRQs "initialized to contain x").
    explicit Crq(const QueueOptions& opt = {},
                 std::optional<value_t> first = std::nullopt)
        : size_(std::uint64_t{1} << opt.ring_order),
          mask_(size_ - 1),
          starvation_limit_(opt.starvation_limit == 0 ? 1 : opt.starvation_limit),
          spin_wait_iters_(opt.spin_wait_iters),
          home_cluster_(topo::current_cluster()) {
        assert(opt.ring_order >= 1 && opt.ring_order < 63);
        // The allocating thread's cluster is the ring's home for life: the
        // init_ring below first-touches every node from this thread, so the
        // slab's pages land on (or, via mbind on the hugepage path, prefer)
        // the home node.  The segment pool files the recycled ring back
        // under this cluster (segment_pool.hpp).
        slab_ = mem::slab_alloc(
            size_ * sizeof(Node), kCacheLineSize,
            {opt.huge_segments && opt.ring_order >= kHugeMinRingOrder,
             home_cluster_});
        ring_ = static_cast<Node*>(check_alloc(slab_.ptr));
        if (slab_.huge_backed) stats::count(stats::Event::kSegmentHuge);
        init_ring(first);
    }

    // Reinitialize a drained, quiescent ring in place so the segment pool
    // can recycle it instead of allocating (segment_pool.hpp).  Equivalent
    // to destroying and reconstructing with the same ring_order — the
    // caller owns the ring exclusively (popped from the pool, past the
    // hazard scan), and the publishing list-append CAS is what makes the
    // reset visible to other threads.
    void reset(const QueueOptions& opt,
               std::optional<value_t> first = std::nullopt) {
        assert((std::uint64_t{1} << opt.ring_order) == size_);
        starvation_limit_ = opt.starvation_limit == 0 ? 1 : opt.starvation_limit;
        spin_wait_iters_ = opt.spin_wait_iters;
        next.store(nullptr, std::memory_order_relaxed);
        cluster.store(0, std::memory_order_relaxed);
        init_ring(first);
    }

    ~Crq() { mem::slab_free(slab_); }

    Crq(const Crq&) = delete;
    Crq& operator=(const Crq&) = delete;

    // Figure 3d.  Returns kClosed once the ring is closed (by this or any
    // other enqueuer); never blocks, and never reports kFull.
    EnqueueResult try_enqueue(value_t x) {
        assert(is_enqueueable(x));
        unsigned tries = 0;
        for (;;) {
            const std::uint64_t traw = Faa::fetch_add(*tail_, 1);
            if ((traw & detail::kMsb) != 0) return EnqueueResult::kClosed;
            LCRQ_INJECT_POINT(kEnqAfterFaa);
            if (try_put(traw, x)) return EnqueueResult::kOk;

            // Give up if the ring looks full or we are starving (§4, fig 3d
            // lines 97-101): close and let LCRQ append a fresh CRQ.
            const std::uint64_t h = head_->load(std::memory_order_seq_cst);
            if (static_cast<std::int64_t>(traw - h) >= static_cast<std::int64_t>(size_) ||
                ++tries >= starvation_limit_) {
                close();
                return EnqueueResult::kClosed;
            }
            stats::count(stats::Event::kRingRetry);
        }
    }

    // Batched enqueue: claim a range of consecutive tickets with ONE F&A on
    // tail and walk the claimed cells with the per-cell protocol.  Returns
    // how many items from the front of `items` were stored — fewer than
    // items.size() only once the ring is (now) closed, exactly like a
    // failed single ticket: a claimed ticket whose cell was unusable is
    // wasted (dequeuers poison past the hole), and the ring closes under
    // the same full/starvation policy as the single-op path, so LCRQ can
    // spill the remainder into a fresh ring.
    BulkPut try_enqueue_bulk(std::span<const value_t> items) {
        std::size_t done = 0;
        unsigned tries = 0;
        while (done < items.size()) {
            // Claim at most R tickets per round: a wasted ticket burns a
            // ring index, so overclaiming past the capacity only inflates
            // the hole dequeuers must poison past.
            const std::uint64_t want = std::min<std::uint64_t>(
                items.size() - done, size_);
            const std::uint64_t traw = Faa::fetch_add(*tail_, want);
            stats::count(stats::Event::kBulkFaa);
            stats::count(stats::Event::kBulkTickets, want);
            if ((traw & detail::kMsb) != 0) return {done, EnqueueResult::kClosed};
            LCRQ_INJECT_POINT(kBulkEnqAfterFaa);

            std::uint64_t wasted = 0;
            for (std::uint64_t t = traw; t != traw + want; ++t) {
                assert(is_enqueueable(items[done]));
                if (try_put(t, items[done])) {
                    ++done;
                } else {
                    ++wasted;  // hole: this ticket stores nothing, ever
                }
            }
            if (wasted == 0) continue;  // every claimed ticket landed
            stats::count(stats::Event::kBulkWasted, wasted);

            // Same give-up policy as the single-op path, applied per claim
            // round (one F&A == one "try").
            const std::uint64_t h = head_->load(std::memory_order_seq_cst);
            if (static_cast<std::int64_t>(traw + want - h) >
                    static_cast<std::int64_t>(size_) ||
                ++tries >= starvation_limit_) {
                close();
                return {done, EnqueueResult::kClosed};
            }
            stats::count(stats::Event::kRingRetry);
        }
        return {done, EnqueueResult::kOk};
    }

    // Figure 3b, plus the §4.1.1 bounded wait for a matching in-flight
    // enqueuer before an empty transition.
    std::optional<value_t> dequeue() {
        for (;;) {
            const std::uint64_t h = Faa::fetch_add(*head_, 1);
            LCRQ_INJECT_POINT(kDeqAfterFaa);
            value_t v;
            if (try_take(h, v)) return v;

            // No item obtained with index h; return EMPTY if the queue is.
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            if ((traw & detail::kIdxMask) <= h + 1) {
                fix_state();
                return std::nullopt;
            }
            stats::count(stats::Event::kRingRetry);
        }
    }

    // Batched dequeue: claim a ticket range with ONE F&A on head, then walk
    // the claimed cells.  Writes up to `max` items into `out` and returns
    // the count; fewer than `max` are returned ONLY after an empty
    // observation (tail ≤ some burned ticket + 1), so 0 means EMPTY — the
    // same contract as the single op, k at a time.
    //
    // A batch that hits the empty condition mid-range first tries to hand
    // its unspent tickets back with a CAS of head from claim-end to the
    // first unspent ticket (legal exactly when no later ticket was issued,
    // which the CAS's expected value proves); if another dequeuer already
    // claimed past us the CAS fails and the remaining tickets are walked —
    // and thereby spent — normally, so no ticket is ever leaked to strand
    // an item.
    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        std::size_t n = 0;
        while (n < max) {
            const std::uint64_t want =
                std::min<std::uint64_t>(max - n, size_);
            const std::uint64_t hraw = Faa::fetch_add(*head_, want);
            stats::count(stats::Event::kBulkFaa);
            stats::count(stats::Event::kBulkTickets, want);
            LCRQ_INJECT_POINT(kBulkDeqAfterFaa);
            const std::uint64_t end = hraw + want;

            std::uint64_t wasted = 0;
            bool empty_seen = false;
            for (std::uint64_t h = hraw; h != end; ++h) {
                value_t v;
                if (try_take(h, v)) {
                    out[n++] = v;
                    continue;
                }
                ++wasted;
                // Ticket h burned (cell poisoned or spent).  If the queue
                // is empty at this point, stop early instead of burning the
                // rest of the range.
                const std::uint64_t traw =
                    tail_->load(std::memory_order_seq_cst);
                if ((traw & detail::kIdxMask) > h + 1) continue;
                empty_seen = true;
                if (h + 1 == end) break;  // nothing left to hand back
                LCRQ_INJECT_POINT(kBulkTicketReturn);
                std::uint64_t expected_head = end;
                if (counted_cas(*head_, expected_head, h + 1)) {
                    // Tickets h+1..end-1 were never observed by anyone and
                    // are re-issued by future F&As: not wasted, not leaked.
                    break;
                }
                // A later dequeuer holds tickets past `end`; ours cannot be
                // returned, so spend them (mostly empty transitions).
            }
            stats::count(stats::Event::kBulkWasted, wasted);
            if (wasted == 0) continue;  // full round landed; claim more
            if (!empty_seen) {
                // Tickets were burned by races, not emptiness; re-check the
                // single-op EMPTY condition at the end of our range (the
                // last burned ticket is < end, so tail ≤ end is exactly its
                // "tail ≤ h + 1").
                const std::uint64_t traw =
                    tail_->load(std::memory_order_seq_cst);
                empty_seen = (traw & detail::kIdxMask) <= end;
            }
            if (empty_seen) {
                if (n == 0) fix_state();
                return n;
            }
            stats::count(stats::Event::kRingRetry);
        }
        return n;
    }

    // Close to further enqueues (sets tail's MSB; idempotent).
    void close() LCRQ_INJECT_NOEXCEPT {
        counted_test_and_set_bit(*tail_, 63);
        LCRQ_INJECT_POINT(kRingCloseCas);
        stats::count(stats::Event::kCrqClose);
    }

    bool closed() const noexcept {
        return (tail_->load(std::memory_order_seq_cst) & detail::kMsb) != 0;
    }

    std::uint64_t head_index() const noexcept {
        return head_->load(std::memory_order_seq_cst);
    }
    std::uint64_t tail_index() const noexcept {
        return tail_->load(std::memory_order_seq_cst) & detail::kIdxMask;
    }
    std::uint64_t ring_size() const noexcept { return size_; }

    // The cluster whose thread allocated this ring's slab — where its
    // pages live on a first-touch kernel.  Stable across reset(): memory
    // does not move when a ring is recycled, so the pool keeps filing it
    // under its birthplace.
    int home_cluster() const noexcept { return home_cluster_; }
    // Whether the slab's MADV_HUGEPAGE request was accepted (always false
    // on the plain path and under the THP-unavailable fallback).
    bool huge_backed() const noexcept { return slab_.huge_backed; }

    // Instantaneous item-count estimate.  Under concurrency it is a
    // snapshot of racing indices (never negative, may over-count by
    // in-flight operations); clamped to the ring capacity because failed
    // enqueue rounds bump tail without storing (a closed full ring reads
    // exactly R).  For monitoring, not control flow — a queue this
    // estimate calls empty may deliver an item.
    std::uint64_t approx_size() const noexcept {
        const std::uint64_t t = tail_index();
        const std::uint64_t h = head_index();
        const std::uint64_t n = t > h ? t - h : 0;
        return n < size_ ? n : size_;
    }

    // List-layer hooks (linked_segments.hpp); unused standalone.
    static constexpr const char* kListName = "lcrq";
    std::atomic<Crq*> next{nullptr};
    std::atomic<int> cluster{0};

    // Test peers: simulate a thread that performed its F&A and then died
    // (was descheduled forever) before touching the ring — the adversarial
    // schedule the nonblocking proofs are about.  A stolen enqueue ticket
    // leaves a hole dequeuers must poison past; a stolen dequeue ticket
    // strands exactly that one item.  Tests only.
    std::uint64_t debug_take_enqueue_ticket() {
        return Faa::fetch_add(*tail_, 1) & detail::kIdxMask;
    }
    std::uint64_t debug_take_dequeue_ticket() { return Faa::fetch_add(*head_, 1); }

    // Test peer: fast-forward head/tail (and the ring nodes' indices) to a
    // chosen epoch so index-arithmetic near the 63-bit limit is testable
    // without 2^62 operations.  Only valid on a quiescent, empty queue.
    void debug_jump_to_index(std::uint64_t base) {
        assert(head_index() == tail_index());
        assert((base & detail::kMsb) == 0);
        const std::uint64_t aligned = base - (base % size_);
        head_->store(aligned, std::memory_order_seq_cst);
        tail_->store(aligned, std::memory_order_seq_cst);
        for (std::uint64_t u = 0; u < size_; ++u) {
            ring_[u].cell.si.store(detail::make_si(true, aligned + u),
                                   std::memory_order_seq_cst);
            ring_[u].cell.val.store(kBottom, std::memory_order_seq_cst);
        }
    }

  private:
    // Shared by construction and reset: empty ring on lap 0, optional seed
    // item in cell 0 (tail = 1), head = 0, CLOSED bit clear.
    void init_ring(std::optional<value_t> first) {
        for (std::uint64_t u = 0; u < size_; ++u) {
            ring_[u].cell.si.store(detail::make_si(true, u), std::memory_order_relaxed);
            ring_[u].cell.val.store(kBottom, std::memory_order_relaxed);
        }
        head_->store(0, std::memory_order_relaxed);
        tail_->store(0, std::memory_order_relaxed);
        if (first.has_value()) {
            assert(is_enqueueable(*first));
            ring_[0].cell.val.store(*first, std::memory_order_relaxed);
            tail_->store(1, std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    // One enqueue attempt with ticket t (Figure 3d lines 88-96): store x if
    // the cell is empty, not past t, and safe-or-rescuable.  Returns false
    // on an unusable cell or a lost CAS2 — the ticket is then wasted and
    // the caller decides between a fresh ticket and giving up.
    bool try_put(std::uint64_t t, value_t x) {
        detail::CrqCell& cell = ring_[t & mask_].cell;
        const std::uint64_t val = cell.val.load(std::memory_order_seq_cst);
        const std::uint64_t si = cell.si.load(std::memory_order_seq_cst);
        if (val == kBottom && detail::si_idx(si) <= t &&
            (detail::si_safe(si) ||
             head_->load(std::memory_order_seq_cst) <= t)) {
            LCRQ_INJECT_POINT(kEnqBeforeCas2);
            U128 expected{si, kBottom};
            const U128 desired{detail::make_si(true, t), x};
            if (counted_cas2(cell.as_u128(), expected, desired)) {
                LCRQ_INJECT_POINT(kEnqPublished);
                return true;
            }
        }
        return false;
    }

    // Resolve dequeue ticket h against its cell (Figure 3b lines 55-73):
    // returns true with the item in `out`, or false once the ticket is
    // spent (cell advanced past h, marked unsafe, or poisoned by our empty
    // transition) — after which no item can ever appear for ticket h.
    bool try_take(std::uint64_t h, value_t& out) {
        detail::CrqCell& cell = ring_[h & mask_].cell;
        unsigned spins = 0;
        for (;;) {
            const std::uint64_t val = cell.val.load(std::memory_order_seq_cst);
            const std::uint64_t si = cell.si.load(std::memory_order_seq_cst);
            const std::uint64_t idx = detail::si_idx(si);
            const bool safe = detail::si_safe(si);
            if (idx > h) return false;  // overtaken: this index is spent

            if (val != kBottom) {
                if (idx == h) {
                    // Dequeue transition: remove val, advance the node to
                    // the next lap.
                    LCRQ_INJECT_POINT(kDeqBeforeCas2);
                    U128 expected{si, val};
                    const U128 desired{detail::make_si(safe, h + size_), kBottom};
                    if (counted_cas2(cell.as_u128(), expected, desired)) {
                        out = val;
                        return true;
                    }
                } else {
                    // Occupied by an older lap (idx < h): mark unsafe so
                    // enq_h cannot store an item we will not be around to
                    // dequeue.
                    LCRQ_INJECT_POINT(kDeqBeforeUnsafeCas2);
                    U128 expected{si, val};
                    const U128 desired{detail::make_si(false, idx), val};
                    if (counted_cas2(cell.as_u128(), expected, desired)) {
                        stats::count(stats::Event::kUnsafeTransition);
                        return false;
                    }
                }
            } else {
                // Empty cell (idx ≤ h).  If the matching enqueuer is
                // already active (tail passed h), give it a moment before
                // poisoning the node — saves both operations a round
                // through the contended F&As (§4.1.1).
                if (spins < spin_wait_iters_) {
                    const std::uint64_t traw =
                        tail_->load(std::memory_order_seq_cst);
                    if ((traw & detail::kIdxMask) > h) {
                        ++spins;
                        stats::count(stats::Event::kSpinWait);
                        cpu_relax();
                        continue;
                    }
                }
                // Empty transition: advance the node a lap so no operation
                // with index ≤ h can use it.
                LCRQ_INJECT_POINT(kDeqBeforeEmptyCas2);
                U128 expected{si, kBottom};
                const U128 desired{detail::make_si(safe, h + size_), kBottom};
                if (counted_cas2(cell.as_u128(), expected, desired)) {
                    stats::count(stats::Event::kEmptyTransition);
                    return false;
                }
            }
            // A CAS2 failed: the node changed under us; re-read.
        }
    }

    // A dequeuer overshooting an empty queue leaves head > tail; restore
    // head ≤ tail so enqueuers do not burn an extra F&A round per wasted
    // index (Figure 3c).  A closed CRQ takes no further enqueues, so there
    // is nothing to fix (and the CAS below must not clobber the bit).
    void fix_state() noexcept {
        for (;;) {
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            const std::uint64_t h = head_->load(std::memory_order_seq_cst);
            if (tail_->load(std::memory_order_seq_cst) != traw) continue;
            if ((traw & detail::kMsb) != 0) return;
            if (h <= traw) return;
            if (counted_cas(*tail_, traw, h)) return;
        }
    }

    const std::uint64_t size_;
    const std::uint64_t mask_;
    // Non-const so reset() can re-apply the options of the queue recycling
    // the ring; stable while the ring is published.
    unsigned starvation_limit_;
    unsigned spin_wait_iters_;
    const int home_cluster_;
    mem::Slab slab_;
    Node* ring_;

    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> head_{0};
    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> tail_{0};
};

}  // namespace lcrq
