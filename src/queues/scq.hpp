// SCQ — the Scalable Circular Queue (Nikolaev, "A Scalable, Portable, and
// Memory-Efficient Lock-Free FIFO Queue", DISC'19; see PAPERS.md).
//
// A second bounded segment backend next to CRQ, closing CRQ's two
// portability gaps: every hot-path RMW is on a *single* 64-bit word (no
// cmpxchg16b), and a finite *threshold* bounds the dequeuer work between
// EMPTY answers, so the ring is livelock-free without tantrum closes.
//
// ScqRing stores small integers (ring indices), not arbitrary values: an
// entry packs (cycle, safe bit, index) into one word, so publishing is a
// plain CAS and consuming is a single fetch-or that stamps the index field
// to ⊥ without disturbing the cycle.  Scq builds the value queue the paper
// describes from an *allocated-queue*/*free-queue* pair of rings over a
// plain data array: enqueue takes a free slot index from fq, writes the
// value, publishes the index through aq; dequeue reverses the trip.
//
// The ring of 2n entries for capacity n, with ticket cycle t/2n, is what
// lets an enqueuer distinguish "slot still holds last lap's index" from
// "slot free for my lap" with one word.  The threshold starts at 3n-1 on
// every enqueue and each failed dequeue ticket decrements it; when it goes
// negative the queue was observably empty at some point during the caller's
// operation, so EMPTY is a correct answer (DISC'19 §4.3).
//
// Livelock-freedom needs the caller invariant that at most n indices are
// outstanding — automatic here, because enqueuers hold indices they got
// from fq (capacity n) and LSCQ closes a full segment instead of spinning.
//
// Tantrum behaviour: ScqRing never closes itself (a closed fq would brick
// the standalone queue); close() is explicit, and the list layer
// (linked_segments.hpp) closes a segment's aq when fq reports full,
// exactly where CRQ would tantrum.
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
#include "queues/queue_common.hpp"
#include "topology/mem_policy.hpp"
#include "topology/topology.hpp"

namespace lcrq {

namespace detail {

inline constexpr std::uint64_t kScqMsb = std::uint64_t{1} << 63;

}  // namespace detail

// Ring of 2^(order+1) single-word entries holding up to 2^order small
// integers in FIFO order.  The index field is order+1 bits (⊥ = all ones),
// the next bit is the safe bit, and the rest of the word is the cycle.
template <class Faa = HardwareFaa>
class ScqRing {
  public:
    // The whole point: one lock-free 64-bit word per entry, no CAS2.
    using Entry = std::atomic<std::uint64_t>;
    static_assert(sizeof(Entry) == 8);

    // Construct with capacity 2^order, pre-filled with the consecutive
    // integers seed_begin..seed_end-1 (fq starts holding every free index;
    // LSCQ appends segments already containing one published index).
    explicit ScqRing(unsigned order, std::uint64_t seed_begin = 0,
                     std::uint64_t seed_end = 0, bool huge = false)
        : order_(order),
          capacity_(std::uint64_t{1} << order),
          size_(capacity_ * 2),
          mask_(size_ - 1),
          idx_bits_(order + 1),
          bottom_(size_ - 1),
          threshold_full_(static_cast<std::int64_t>(3 * capacity_ - 1)) {
        assert(order >= 1 && order < 32);
        // NUMA home is first-touch (init_ring writes every entry from the
        // allocating thread); `huge` is pre-gated by the caller (Scq
        // applies kHugeMinRingOrder).
        slab_ = mem::slab_alloc(size_ * sizeof(Entry), kCacheLineSize,
                                {huge, topo::current_cluster()});
        entries_ = static_cast<Entry*>(check_alloc(slab_.ptr));
        init_ring(seed_begin, seed_end);
    }

    // Reinitialize a drained, quiescent ring in place (cf. Crq::reset):
    // equivalent to reconstructing with the same order.  Caller owns the
    // ring exclusively; publication happens via the list-append CAS.
    void reset(std::uint64_t seed_begin = 0, std::uint64_t seed_end = 0) {
        init_ring(seed_begin, seed_end);
    }

    ~ScqRing() { mem::slab_free(slab_); }

    bool huge_backed() const noexcept { return slab_.huge_backed; }

    ScqRing(const ScqRing&) = delete;
    ScqRing& operator=(const ScqRing&) = delete;

    // Append idx (< capacity).  Loops until it lands or the ring is closed;
    // with the ≤ capacity outstanding-index invariant every F&A round that
    // fails does so because some other operation made progress.
    EnqueueResult enqueue(std::uint64_t idx) {
        assert(idx < capacity_);
        for (;;) {
            const std::uint64_t t = Faa::fetch_add(*tail_, 1);
            if ((t & detail::kScqMsb) != 0) return EnqueueResult::kClosed;
            LCRQ_INJECT_POINT(kScqEnqAfterFaa);
            if (put_at(t, idx)) return EnqueueResult::kOk;
            stats::count(stats::Event::kRingRetry);
        }
    }

    // Batched enqueue: one F&A claims up to capacity tickets; wasted
    // tickets (entry unusable or CAS lost) just shift their items to the
    // next claim round — no starvation close.  Returns how many indices
    // from the front of `idxs` were published; short only once closed.
    std::size_t enqueue_bulk(std::span<const std::uint64_t> idxs) {
        std::size_t done = 0;
        while (done < idxs.size()) {
            const std::uint64_t want =
                std::min<std::uint64_t>(idxs.size() - done, capacity_);
            const std::uint64_t traw = Faa::fetch_add(*tail_, want);
            stats::count(stats::Event::kBulkFaa);
            stats::count(stats::Event::kBulkTickets, want);
            if ((traw & detail::kScqMsb) != 0) return done;
            LCRQ_INJECT_POINT(kScqEnqAfterFaa);
            std::uint64_t wasted = 0;
            for (std::uint64_t t = traw; t != traw + want && done < idxs.size();
                 ++t) {
                if (put_at(t, idxs[done])) {
                    ++done;
                } else {
                    ++wasted;  // hole: dequeuers advance past it
                }
            }
            if (wasted != 0) {
                stats::count(stats::Event::kBulkWasted, wasted);
                stats::count(stats::Event::kRingRetry);
            }
        }
        return done;
    }

    // Remove and return the oldest index, or nullopt when empty.  The
    // threshold fast path answers EMPTY with one shared load once 3n-1
    // consecutive dequeue tickets burned with no enqueue in between.
    std::optional<std::uint64_t> dequeue() {
        if (threshold_->load(std::memory_order_seq_cst) < 0 &&
            exhaustion_final()) {
            return std::nullopt;
        }
        for (;;) {
            const std::uint64_t h = Faa::fetch_add(*head_, 1);
            LCRQ_INJECT_POINT(kScqDeqAfterFaa);
            std::uint64_t idx;
            if (take_at(h, idx)) return idx;

            // Ticket h burned.  EMPTY if tail has not passed us…
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            if ((traw & ~detail::kScqMsb) <= h + 1) {
                catchup(traw, h + 1);
                LCRQ_INJECT_POINT(kScqThresholdDecrement);
                threshold_->fetch_sub(1, std::memory_order_seq_cst);
                return std::nullopt;
            }
            // …or once the threshold is exhausted (the queue was empty at
            // some point during this operation — DISC'19 §4.3) and that
            // answer is final (see exhaustion_final).
            LCRQ_INJECT_POINT(kScqThresholdDecrement);
            if (threshold_->fetch_sub(1, std::memory_order_seq_cst) <= 0 &&
                exhaustion_final()) {
                return std::nullopt;
            }
            stats::count(stats::Event::kRingRetry);
        }
    }

    // Batched dequeue, same contract as Crq::dequeue_bulk: up to `max`
    // indices into `out`, one F&A per claim round, short return only after
    // an empty observation (so 0 means EMPTY).  A range that goes empty
    // mid-walk hands its unspent tickets back with a CAS of head from
    // claim-end to the first unspent ticket; if a later claim already
    // exists the CAS fails and the tickets are spent normally.
    std::size_t dequeue_bulk(std::uint64_t* out, std::size_t max) {
        std::size_t n = 0;
        while (n < max) {
            if (threshold_->load(std::memory_order_seq_cst) < 0 &&
                exhaustion_final()) {
                return n;
            }
            const std::uint64_t want = std::min<std::uint64_t>(max - n, capacity_);
            const std::uint64_t hraw = Faa::fetch_add(*head_, want);
            stats::count(stats::Event::kBulkFaa);
            stats::count(stats::Event::kBulkTickets, want);
            LCRQ_INJECT_POINT(kScqDeqAfterFaa);
            const std::uint64_t end = hraw + want;

            std::uint64_t wasted = 0;
            bool empty_seen = false;
            for (std::uint64_t h = hraw; h != end; ++h) {
                std::uint64_t idx;
                if (take_at(h, idx)) {
                    out[n++] = idx;
                    continue;
                }
                ++wasted;
                LCRQ_INJECT_POINT(kScqThresholdDecrement);
                const std::int64_t left =
                    threshold_->fetch_sub(1, std::memory_order_seq_cst);
                const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
                if ((traw & ~detail::kScqMsb) <= h + 1) {
                    catchup(traw, h + 1);
                    empty_seen = true;
                } else if (left <= 0 && exhaustion_final()) {
                    empty_seen = true;
                } else {
                    continue;
                }
                if (h + 1 == end) break;  // nothing left to hand back
                // Handing tickets back must never drop head below a frozen
                // (closed) tail: EMPTY was just observed, and re-exposing
                // pre-close tickets would let a stalled enqueuer publish
                // into a segment LSCQ is about to retire.
                const std::uint64_t t2 = tail_->load(std::memory_order_seq_cst);
                if ((t2 & detail::kScqMsb) != 0 &&
                    (t2 & ~detail::kScqMsb) > h + 1) {
                    continue;  // spend the rest of the range instead
                }
                LCRQ_INJECT_POINT(kBulkTicketReturn);
                std::uint64_t expected_head = end;
                if (counted_cas(*head_, expected_head, h + 1)) break;
                // A later dequeuer holds tickets past `end`; spend ours.
            }
            stats::count(stats::Event::kBulkWasted, wasted);
            if (empty_seen) return n;
            if (wasted == 0) continue;
            // Burned by races, not emptiness; re-check EMPTY at range end.
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            if ((traw & ~detail::kScqMsb) <= end) {
                catchup(traw, end);
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
        return (tail_->load(std::memory_order_seq_cst) & detail::kScqMsb) != 0;
    }

    std::uint64_t head_index() const noexcept {
        return head_->load(std::memory_order_seq_cst);
    }
    std::uint64_t tail_index() const noexcept {
        return tail_->load(std::memory_order_seq_cst) & ~detail::kScqMsb;
    }
    std::int64_t threshold() const noexcept {
        return threshold_->load(std::memory_order_seq_cst);
    }
    std::uint64_t capacity() const noexcept { return capacity_; }

    std::uint64_t approx_size() const noexcept {
        const std::uint64_t t = tail_index();
        const std::uint64_t h = head_index();
        const std::uint64_t n = t > h ? t - h : 0;
        return n < capacity_ ? n : capacity_;
    }

    // Test peer: a thread that performed its F&A and then was descheduled
    // forever (cf. Crq::debug_take_*_ticket).
    std::uint64_t debug_take_enqueue_ticket() {
        return Faa::fetch_add(*tail_, 1) & ~detail::kScqMsb;
    }
    std::uint64_t debug_take_dequeue_ticket() { return Faa::fetch_add(*head_, 1); }

  private:
    void init_ring(std::uint64_t seed_begin, std::uint64_t seed_end) {
        const std::uint64_t seeds = seed_end - seed_begin;
        assert(seeds <= capacity_);
        for (std::uint64_t u = 0; u < size_; ++u) {
            entries_[u].store(pack(0, true, bottom_), std::memory_order_relaxed);
        }
        // Seeded entries live on cycle 1 (ticket size_ + i), matching the
        // head/tail start of one full lap so cycle 0 never carries items.
        for (std::uint64_t i = 0; i < seeds; ++i) {
            entries_[remap(i)].store(pack(1, true, seed_begin + i),
                                     std::memory_order_relaxed);
        }
        head_->store(size_, std::memory_order_relaxed);
        tail_->store(size_ + seeds, std::memory_order_relaxed);
        threshold_->store(seeds != 0 ? threshold_full_ : -1,
                          std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    std::uint64_t cycle_of_ticket(std::uint64_t t) const noexcept {
        return t >> idx_bits_;
    }
    std::uint64_t pack(std::uint64_t cycle, bool safe,
                       std::uint64_t idx) const noexcept {
        return (cycle << (idx_bits_ + 1)) |
               (safe ? (std::uint64_t{1} << idx_bits_) : 0) | idx;
    }
    std::uint64_t cycle_of(std::uint64_t e) const noexcept {
        return e >> (idx_bits_ + 1);
    }
    bool is_safe(std::uint64_t e) const noexcept {
        return (e & (std::uint64_t{1} << idx_bits_)) != 0;
    }
    std::uint64_t index_of(std::uint64_t e) const noexcept { return e & bottom_; }

    // Spread consecutive ring slots across cache lines (DISC'19 §4.6):
    // rotate the slot number left by 3 within its idx_bits-wide field, so
    // neighbouring tickets land 8 entries (one cache line) apart.  Identity
    // for tiny rings, where the whole ring fits in a line anyway.
    std::uint64_t remap(std::uint64_t j) const noexcept {
        if (idx_bits_ <= 3) return j;
        return ((j << 3) | (j >> (idx_bits_ - 3))) & mask_;
    }

    // One enqueue attempt with ticket t: publish idx if the entry is on an
    // older cycle, holds no index, and is safe or rescuable (head ≤ t).
    // False on an unusable entry; a lost CAS re-reads and re-decides, since
    // a dequeuer may merely have flipped our safe bit or advanced a cycle
    // that is still below ours.
    bool put_at(std::uint64_t t, std::uint64_t idx) {
        Entry& entry = entries_[remap(t & mask_)];
        std::uint64_t e = entry.load(std::memory_order_seq_cst);
        for (;;) {
            LCRQ_INJECT_POINT(kScqAfterCycleLoad);
            if (cycle_of(e) >= cycle_of_ticket(t) || index_of(e) != bottom_ ||
                (!is_safe(e) &&
                 head_->load(std::memory_order_seq_cst) > t)) {
                return false;
            }
            LCRQ_INJECT_POINT(kScqBeforeEntryCas);
            if (counted_cas(entry, e, pack(cycle_of_ticket(t), true, idx))) {
                LCRQ_INJECT_POINT(kScqEnqPublished);
                // Re-arm the EMPTY bound: dequeuers may burn 3n-1 tickets
                // before concluding empty, counted from this enqueue.
                if (threshold_->load(std::memory_order_seq_cst) != threshold_full_) {
                    threshold_->store(threshold_full_, std::memory_order_seq_cst);
                }
                return true;
            }
            e = entry.load(std::memory_order_seq_cst);
        }
    }

    // Resolve dequeue ticket h: true with the index in `out`, or false once
    // the ticket is spent (entry overtaken, marked unsafe, or advanced to
    // our cycle by our empty transition).
    bool take_at(std::uint64_t h, std::uint64_t& out) {
        Entry& entry = entries_[remap(h & mask_)];
        const std::uint64_t hc = cycle_of_ticket(h);
        std::uint64_t e = entry.load(std::memory_order_seq_cst);
        for (;;) {
            LCRQ_INJECT_POINT(kScqAfterCycleLoad);
            if (cycle_of(e) == hc) {
                // Consume: one fetch-or stamps the index field to ⊥.  It
                // cannot lose the index — enqueuers never touch an entry on
                // their own cycle, so the bits we read stay valid.
                counted_fetch_or(entry, bottom_);
                out = index_of(e);
                return true;
            }
            if (cycle_of(e) > hc) return false;  // overtaken: ticket spent

            std::uint64_t desired;
            bool unsafe_transition;
            if (index_of(e) != bottom_) {
                // Occupied by an older cycle: clear safe so enq_h cannot
                // store an index we will not be around to consume.
                if (!is_safe(e)) return false;  // already unsafe
                desired = pack(cycle_of(e), false, index_of(e));
                unsafe_transition = true;
            } else {
                // Empty: advance the entry to our cycle so no enqueue with
                // ticket ≤ h can use it behind our back.
                desired = pack(hc, is_safe(e), bottom_);
                unsafe_transition = false;
            }
            LCRQ_INJECT_POINT(kScqBeforeEntryCas);
            if (counted_cas(entry, e, desired)) {
                stats::count(unsafe_transition
                                 ? stats::Event::kUnsafeTransition
                                 : stats::Event::kEmptyTransition);
                return false;
            }
            e = entry.load(std::memory_order_seq_cst);
        }
    }

    // A threshold-exhaustion EMPTY is authoritative only while the ring is
    // open.  On a *closed* ring a pre-close enqueuer stalled between its
    // tail F&A and its entry CAS can still publish later, and the threshold
    // can burn out on holes (bulk enqueues waste tickets) before head ever
    // reaches the stalled ticket — but LSCQ retires a segment on EMPTY, so
    // a late publish would strand the item in a dead segment.  The closed
    // tail is frozen, which makes head >= tail a stable emptiness check;
    // draining head up to the frozen tail first invalidates every
    // outstanding ticket (each burned entry is advanced or holds a stale
    // index the publisher's CAS rejects), restoring exactly the guarantee
    // CRQ's head >= tail EMPTY gives LCRQ.
    bool exhaustion_final() const noexcept {
        const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
        if ((traw & detail::kScqMsb) == 0) return true;
        return head_->load(std::memory_order_seq_cst) >=
               (traw & ~detail::kScqMsb);
    }

    // Dequeuers overshooting an empty ring leave head > tail; pull tail
    // forward so enqueuers do not burn an F&A round per wasted index.  The
    // CRQ analogue is fix_state; like it, a closed tail is frozen (the CAS
    // must not clobber the MSB).
    void catchup(std::uint64_t traw, std::uint64_t h) LCRQ_INJECT_NOEXCEPT {
        LCRQ_INJECT_POINT(kScqCatchup);
        for (;;) {
            if ((traw & detail::kScqMsb) != 0) return;
            if (traw >= h) return;
            if (counted_cas(*tail_, traw, h)) return;
            h = head_->load(std::memory_order_seq_cst);
            traw = tail_->load(std::memory_order_seq_cst);
        }
    }

    const unsigned order_;
    const std::uint64_t capacity_;
    const std::uint64_t size_;   // 2 * capacity_ entries
    const std::uint64_t mask_;
    const unsigned idx_bits_;    // order_ + 1
    const std::uint64_t bottom_; // ⊥ == the all-ones index field
    const std::int64_t threshold_full_;  // 3n - 1
    mem::Slab slab_;
    Entry* entries_;

    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> head_{0};
    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> tail_{0};
    CacheAligned<std::atomic<std::int64_t>, kDestructivePairSize> threshold_{0};
};

// Per-round scratch size for the value-queue bulk paths.
inline constexpr std::size_t kScqBulkChunk = 64;

// The SCQ value queue: an allocated-queue/free-queue pair of rings over a
// plain data array.  The array needs no atomics: the publishing entry CAS
// in aq (or fq) is the release, and the consuming load is the acquire, for
// each slot's handoff between writer and reader.
template <class Faa = HardwareFaa>
class Scq {
  public:
    using Ring = ScqRing<Faa>;

    // Capacity 2^order values, optionally seeded with one item (LSCQ
    // appends segments "initialized to contain x", like LCRQ does CRQs).
    explicit Scq(unsigned order, std::optional<value_t> first = std::nullopt,
                 bool huge = false)
        : capacity_(std::uint64_t{1} << order),
          huge_(huge && order >= kHugeMinRingOrder),
          home_cluster_(topo::current_cluster()),
          aq_(order, 0, first.has_value() ? 1 : 0, huge_),
          fq_(order, first.has_value() ? 1 : 0, capacity_, huge_) {
        data_slab_ = mem::slab_alloc(capacity_ * sizeof(value_t),
                                     kCacheLineSize, {huge_, home_cluster_});
        data_ = static_cast<value_t*>(check_alloc(data_slab_.ptr));
        if (huge_backed()) stats::count(stats::Event::kSegmentHuge);
        if (first.has_value()) {
            assert(is_enqueueable(*first));
            data_[0] = *first;
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    // The list layer's constructor: ring_order and huge_segments apply.
    Scq(const QueueOptions& opt, std::optional<value_t> first)
        : Scq(opt.ring_order, first, opt.huge_segments) {}

    ~Scq() { mem::slab_free(data_slab_); }

    // In-place reinitialization for segment recycling (cf. Crq::reset).
    // Caller owns the segment exclusively and the order must match.
    void reset([[maybe_unused]] const QueueOptions& opt,
               std::optional<value_t> first = std::nullopt) {
        assert((std::uint64_t{1} << opt.ring_order) == capacity_);
        aq_.reset(0, first.has_value() ? 1 : 0);
        fq_.reset(first.has_value() ? 1 : 0, capacity_);
        if (first.has_value()) {
            assert(is_enqueueable(*first));
            data_[0] = *first;
        }
        next.store(nullptr, std::memory_order_relaxed);
        cluster.store(0, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    Scq(const Scq&) = delete;
    Scq& operator=(const Scq&) = delete;

    EnqueueResult try_enqueue(value_t x) {
        assert(is_enqueueable(x));
        const auto idx = fq_.dequeue();
        if (!idx.has_value()) return EnqueueResult::kFull;
        data_[*idx] = x;
        if (aq_.enqueue(*idx) == EnqueueResult::kClosed) {
            // The slot (and its item) never became visible; recycle it.
            fq_.enqueue(*idx);
            return EnqueueResult::kClosed;
        }
        return EnqueueResult::kOk;
    }

    std::optional<value_t> dequeue() {
        const auto idx = aq_.dequeue();
        if (!idx.has_value()) return std::nullopt;
        const value_t v = data_[*idx];
        fq_.enqueue(*idx);
        return v;
    }

    // Batched enqueue: each chunk is one fq claim round plus one aq claim
    // round, so a k-item batch costs ~2 F&As instead of 2k.  Stops at kFull
    // (no free slot right now) or kClosed (aq closed mid-batch; unpublished
    // slots recycled), reporting how many items from the front landed.
    BulkPut try_enqueue_bulk(std::span<const value_t> items) {
        std::size_t done = 0;
        std::uint64_t idxs[kScqBulkChunk];
        while (done < items.size()) {
            const std::size_t want = std::min<std::size_t>(
                {items.size() - done, capacity_, kScqBulkChunk});
            const std::size_t got = fq_.dequeue_bulk(idxs, want);
            if (got == 0) return {done, EnqueueResult::kFull};
            for (std::size_t i = 0; i < got; ++i) {
                assert(is_enqueueable(items[done + i]));
                data_[idxs[i]] = items[done + i];
            }
            const std::size_t put = aq_.enqueue_bulk({idxs, got});
            done += put;
            if (put < got) {
                fq_.enqueue_bulk({idxs + put, got - put});
                return {done, EnqueueResult::kClosed};
            }
        }
        return {done, EnqueueResult::kOk};
    }

    // Batched dequeue (Crq::dequeue_bulk contract: short only on an empty
    // observation, 0 means EMPTY).
    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        std::size_t n = 0;
        std::uint64_t idxs[kScqBulkChunk];
        while (n < max) {
            const std::size_t want =
                std::min<std::size_t>({max - n, capacity_, kScqBulkChunk});
            const std::size_t got = aq_.dequeue_bulk(idxs, want);
            for (std::size_t i = 0; i < got; ++i) out[n + i] = data_[idxs[i]];
            n += got;
            if (got != 0) fq_.enqueue_bulk({idxs, got});
            if (got < want) break;  // aq observed empty
        }
        return n;
    }

    // Close to further enqueues.  Only aq closes: fq keeps circulating so
    // in-flight slots drain back and dequeues finish normally.
    void close() LCRQ_INJECT_NOEXCEPT { aq_.close(); }
    bool closed() const noexcept { return aq_.closed(); }

    std::uint64_t capacity() const noexcept { return capacity_; }
    std::uint64_t approx_size() const noexcept { return aq_.approx_size(); }

    // The rings, for tests probing thresholds/indices directly.
    Ring& allocated_ring() noexcept { return aq_; }
    Ring& free_ring() noexcept { return fq_; }

    // The cluster whose thread allocated this segment's slabs (stable
    // across reset(): memory does not move when a segment is recycled).
    int home_cluster() const noexcept { return home_cluster_; }
    // Whether every slab (both rings and the data array) got its
    // MADV_HUGEPAGE request accepted.
    bool huge_backed() const noexcept {
        return data_slab_.huge_backed && aq_.huge_backed() && fq_.huge_backed();
    }

    // List-layer hooks (linked_segments.hpp); unused standalone.
    static constexpr const char* kListName = "lscq";
    std::atomic<Scq*> next{nullptr};
    std::atomic<int> cluster{0};

  private:
    const std::uint64_t capacity_;
    const bool huge_;  // hugepage request, pre-gated by kHugeMinRingOrder
    const int home_cluster_;
    Ring aq_;  // allocated: indices of slots currently holding items
    Ring fq_;  // free: indices of vacant slots
    mem::Slab data_slab_;
    value_t* data_;
};

// Standalone bounded MPMC queue over one Scq, capacity 2^bounded_order
// (the bounded-baseline knob, like BoundedMpmcQueue).  enqueue() applies
// backpressure by spinning on kFull; the ring is never closed.
template <class Faa = HardwareFaa>
class BasicScqQueue {
  public:
    static constexpr const char* kName = "scq";

    explicit BasicScqQueue(const QueueOptions& opt = {})
        : q_(opt.bounded_order) {}

    void enqueue(value_t x) {
        SpinWait waiter;
        while (!try_enqueue(x)) waiter.spin();
    }

    bool try_enqueue(value_t x) {
        return q_.try_enqueue(x) == EnqueueResult::kOk;
    }

    std::optional<value_t> dequeue() { return q_.dequeue(); }

    void enqueue_bulk(std::span<const value_t> items) {
        std::size_t done = 0;
        SpinWait waiter;
        while (done < items.size()) {
            done += q_.try_enqueue_bulk(items.subspan(done)).done;
            if (done < items.size()) waiter.spin();
        }
    }

    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        return q_.dequeue_bulk(out, max);
    }

    // The wrapper never closes the ring itself, but base().close() can;
    // the blocking facade probes this to tell a full refusal from a
    // closed one.
    bool closed() const noexcept { return q_.closed(); }

    std::uint64_t capacity() const noexcept { return q_.capacity(); }
    std::uint64_t approx_size() const noexcept { return q_.approx_size(); }
    Scq<Faa>& base() noexcept { return q_; }

  private:
    Scq<Faa> q_;
};

using ScqQueue = BasicScqQueue<HardwareFaa>;

}  // namespace lcrq
