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
// to ⊥ without disturbing the cycle.  ScqValueQueue builds the value queue
// the paper describes from an *allocated-queue*/*free-queue* pair of rings
// over a plain data array: enqueue takes a free slot index from fq, writes
// the value, publishes the index through aq; dequeue reverses the trip.
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
// In a list (LSCQ, LwCQ) a thread's dequeue from the last segment keeps the
// slot it freed instead of returning it to fq, and the same thread's next
// enqueue into that segment publishes it through aq without touching fq
// (ScqSlotCache; not in DISC'19).  A dequeue–enqueue pair then costs one
// ring's F&A and entry RMW each way, as an LCRQ pair does.  Every index is
// in exactly one place — aq, fq, an operation in flight, or one thread's
// cache — so live + in-flight + kept ≤ n and the threshold bound stands.
// Kept slots make the threads of a shallow run reuse a few consecutive
// indices, first taken from fq in order, so slot s lives at data[spread(s)]
// (cacheline.hpp), the rotation remap() applies to ring entries: those
// slots land on distinct cache lines instead of sharing one.
//
// Tantrum behaviour: ScqRing never closes itself (a closed fq would brick
// the standalone queue); close() is explicit, and the list layer
// (linked_segments.hpp) closes a segment's aq when fq reports full,
// exactly where CRQ would tantrum.
//
// One family: wCQ (wcq.hpp) is this ring plus a helping slow path, so
// WcqRing derives from the same ScqTicketCore, whose entry steps and EMPTY
// rules both rings run: SCQ with the core's own hooks, wCQ with three
// replaced.  The claim loops themselves are the ticket core's
// (ticket_ring.hpp), which CRQ runs too.  ScqValueQueue and BasicScqQueue
// are written once over either ring (Scq/Wcq, ScqQueue/WcqQueue are their
// aliases).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/inject.hpp"
#include "queues/queue_common.hpp"
#include "queues/ticket_ring.hpp"
#include "topology/mem_policy.hpp"
#include "topology/topology.hpp"

namespace lcrq {

// What every SCQ-family ring shares on top of the ticket core
// (ticket_ring.hpp): a ring of 2^(order+1) single-word entries holding up
// to 2^order small integers in FIFO order, its threshold word, the entry
// steps that settle a ticket, and the rules for answering EMPTY.  An entry
// is [ cycle | safe | note:kNoteBits | idx:order+1 ] with ⊥ = the all-ones
// index; the note field is wCQ's helping reservation (0 bits for SCQ).
template <unsigned kNoteBits>
class ScqTicketCore : public TicketRing {
  public:
    // The whole point: one lock-free 64-bit word per entry, no CAS2.
    using Entry = std::atomic<std::uint64_t>;
    static_assert(sizeof(Entry) == 8);

    std::int64_t threshold() const noexcept {
        return threshold_->load(std::memory_order_seq_cst);
    }
    std::uint64_t capacity() const noexcept { return capacity_; }

    bool huge_backed() const noexcept { return slab_.huge_backed; }

    // Test peer for a quiescent ring: how many indices it holds.
    std::uint64_t debug_held() const noexcept {
        std::uint64_t n = 0;
        for (std::uint64_t u = 0; u < size_; ++u) {
            if (index_of(entries_[u].load(std::memory_order_seq_cst)) != bottom_) ++n;
        }
        return n;
    }

  protected:
    friend class TicketRing;  // the claim loops call the hooks below

    // Capacity 2^order, pre-filled with the consecutive integers
    // seed_begin..seed_end-1 (fq starts holding every free index; the list
    // layer appends segments already containing one published index).  The
    // Faa tag is the ring's F&A policy (TicketRing).
    template <class Faa>
    ScqTicketCore(Faa faa, unsigned order, std::uint64_t seed_begin,
                  std::uint64_t seed_end, bool huge)
        : TicketRing(std::uint64_t{1} << order, faa),
          size_(capacity_ * 2),
          mask_(size_ - 1),
          idx_bits_(order + 1),
          bottom_(size_ - 1),
          threshold_full_(static_cast<std::int64_t>(3 * capacity_ - 1)) {
        assert(order >= 1 && order < 32);
        // NUMA home is first-touch (init_ring writes every entry from the
        // allocating thread); `huge` is pre-gated by the caller
        // (ScqValueQueue applies kHugeMinRingOrder).
        slab_ = mem::slab_alloc(size_ * sizeof(Entry), kCacheLineSize,
                                {huge, topo::current_cluster()});
        entries_ = static_cast<Entry*>(check_alloc(slab_.ptr));
        init_ring(seed_begin, seed_end);
    }

    ~ScqTicketCore() { mem::slab_free(slab_); }

    static constexpr TicketPoints kTicketPoints{
        inject::Point::kScqEnqAfterFaa, inject::Point::kScqDeqAfterFaa,
        inject::Point::kScqEnqAfterFaa, inject::Point::kScqDeqAfterFaa};

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

    unsigned safe_shift() const noexcept { return idx_bits_ + kNoteBits; }
    unsigned cycle_shift() const noexcept { return safe_shift() + 1; }
    // The note flag tops wCQ's note field (wcq.hpp).  An SCQ entry has no
    // note field, so there is_note is constant false and the fast path's
    // note hook is unreachable.
    unsigned note_shift() const noexcept { return safe_shift() - 1; }

    std::uint64_t cycle_of_ticket(std::uint64_t t) const noexcept {
        return t >> idx_bits_;
    }
    std::uint64_t pack(std::uint64_t cycle, bool safe,
                       std::uint64_t idx) const noexcept {
        return (cycle << cycle_shift()) |
               (safe ? (std::uint64_t{1} << safe_shift()) : 0) | idx;
    }
    std::uint64_t cycle_of(std::uint64_t e) const noexcept {
        return e >> cycle_shift();
    }
    bool is_safe(std::uint64_t e) const noexcept {
        return (e & (std::uint64_t{1} << safe_shift())) != 0;
    }
    bool is_note(std::uint64_t e) const noexcept {
        if constexpr (kNoteBits == 0) {
            return false;
        } else {
            return (e & (std::uint64_t{1} << note_shift())) != 0;
        }
    }
    std::uint64_t index_of(std::uint64_t e) const noexcept { return e & bottom_; }

    // Spread consecutive ring slots across cache lines (cacheline.hpp's
    // spread within the idx_bits-wide field), so neighbouring tickets land
    // 8 entries (one cache line) apart.
    std::uint64_t remap(std::uint64_t j) const noexcept {
        return spread(j, idx_bits_);
    }
    std::uint64_t unremap(std::uint64_t u) const noexcept {
        return unspread(u, idx_bits_);
    }
    // The unique ticket a (cell, cycle) pair denotes — remap is bijective.
    std::uint64_t ticket_of(std::uint64_t cell, std::uint64_t cycle) const noexcept {
        return (cycle << idx_bits_) | unremap(cell);
    }
    Entry& entry_at(std::uint64_t t) noexcept {
        return entries_[remap(t & mask_)];
    }

    // --- the entry steps: the ticket core's settle hooks ------------------
    //
    // Member templates over the calling ring, which they call back by name
    // at two more hooks (verify/scq_model.hpp's ScqFastPath names them, with
    // the ticket core's failed_round): resolve_note when an entry load finds
    // a reservation, and consume on the dequeuer's own cycle.  The hooks
    // below are SCQ's; WcqRing replaces both, and failed_round too.

    // One enqueue attempt with ticket t: publish idx (< capacity) if the
    // entry is usable.  False on an unusable entry; a lost CAS re-reads and
    // re-decides, since a dequeuer may merely have flipped our safe bit or
    // advanced a cycle that is still below ours.  An entry a wCQ request
    // has reserved is driven to a decision once, and the ticket given up if
    // it stays reserved.
    template <class Ring>
    bool put_at(Ring& ring, std::uint64_t t, std::uint64_t idx) {
        assert(idx < capacity_);
        Entry& entry = entry_at(t);
        std::uint64_t e = entry.load(std::memory_order_seq_cst);
        for (;;) {
            LCRQ_INJECT_POINT(kScqAfterCycleLoad);
            if (is_note(e)) {
                ring.resolve_note(remap(t & mask_), e);
                e = entry.load(std::memory_order_seq_cst);
                if (is_note(e)) return false;  // still reserved: move on
                continue;
            }
            if (!enqueue_usable(e, t)) return false;
            LCRQ_INJECT_POINT(kScqBeforeEntryCas);
            if (counted_cas(entry, e, pack(cycle_of_ticket(t), true, idx))) {
                LCRQ_INJECT_POINT(kScqEnqPublished);
                rearm_threshold();
                return true;
            }
            e = entry.load(std::memory_order_seq_cst);
        }
    }

    // Resolve dequeue ticket h: true with the index in `out`, or false once
    // the ticket is spent (entry overtaken, marked unsafe, or advanced to
    // our cycle by our empty transition).
    template <class Ring>
    bool take_at(Ring& ring, std::uint64_t h, std::uint64_t& out) {
        Entry& entry = entry_at(h);
        const std::uint64_t hc = cycle_of_ticket(h);
        std::uint64_t e = entry.load(std::memory_order_seq_cst);
        for (;;) {
            LCRQ_INJECT_POINT(kScqAfterCycleLoad);
            if (is_note(e)) {
                // Reserved by a wCQ request (any cycle): drive it to a
                // decision, then re-examine the entry.
                ring.resolve_note(remap(h & mask_), e);
            } else if (cycle_of(e) == hc) {
                // ⊥ on our own cycle: a wCQ helper consumed the index for a
                // slow dequeue.  On an SCQ ring only h itself writes it.
                if (index_of(e) == bottom_) return false;
                if (ring.consume(entry, e, hc)) {
                    out = index_of(e);
                    return true;
                }
            } else if (cycle_of(e) > hc) {
                return false;  // overtaken: ticket spent
            } else if (dequeue_transition(entry, e, hc)) {
                return false;
            }
            e = entry.load(std::memory_order_seq_cst);
        }
    }

    // Whether an enqueue with ticket t may publish into entry word e: e is
    // on an older cycle, holds no index, and is safe or rescuable (head ≤ t).
    bool enqueue_usable(std::uint64_t e, std::uint64_t t) const noexcept {
        return cycle_of(e) < cycle_of_ticket(t) && index_of(e) == bottom_ &&
               (is_safe(e) || head_->load(std::memory_order_seq_cst) <= t);
    }

    // Dequeue ticket h's transition of entry word e, which is on an older
    // cycle than hc = h's and not a note.  Occupied: clear safe so enq_h
    // cannot store an index we will not be around to consume.  Empty:
    // advance the entry to our cycle so no enqueue with ticket ≤ h can use
    // it behind our back.  True once the ticket is spent (the entry was
    // already unsafe, or the CAS landed); false when the CAS lost.
    bool dequeue_transition(Entry& entry, std::uint64_t e, std::uint64_t hc) {
        const bool occupied = index_of(e) != bottom_;
        if (occupied && !is_safe(e)) return true;
        const std::uint64_t desired =
            occupied ? e & ~(std::uint64_t{1} << safe_shift())
                     : pack(hc, is_safe(e), bottom_);
        LCRQ_INJECT_POINT(kScqBeforeEntryCas);
        if (!counted_cas(entry, e, desired)) return false;
        stats::count(occupied ? stats::Event::kUnsafeTransition
                              : stats::Event::kEmptyTransition);
        return true;
    }

    // SCQ's hooks.  No entry of an SCQ ring is ever a note.
    void resolve_note(std::uint64_t, std::uint64_t) noexcept {}

    // Consume: one fetch-or stamps the index field to ⊥.  It cannot lose
    // the index — enqueuers never touch an entry on their own cycle, so the
    // bits we read stay valid.
    bool consume(Entry& entry, std::uint64_t, std::uint64_t) noexcept {
        counted_fetch_or(entry, bottom_);
        return true;
    }

    // Re-arm the EMPTY bound after publishing an index: dequeuers may burn
    // 3n-1 tickets before concluding empty, counted from this enqueue.
    void rearm_threshold() {
        if (threshold_->load(std::memory_order_seq_cst) != threshold_full_) {
            threshold_->store(threshold_full_, std::memory_order_seq_cst);
        }
    }

    // --- the EMPTY rules: the ticket core's EMPTY and repair hooks ---------

    // Before claiming: EMPTY with one shared load once 3n-1 consecutive
    // dequeue tickets burned with no enqueue in between.
    bool empty_before_claim() const noexcept {
        return threshold_->load(std::memory_order_seq_cst) < 0 &&
               exhaustion_final();
    }

    // A burned dequeue ticket counts the threshold down.  Once it is
    // exhausted the queue was empty at some point during this operation
    // (DISC'19 §4.3), and that EMPTY stands if it is final (see
    // exhaustion_final).
    bool empty_after_burn() {
        LCRQ_INJECT_POINT(kScqThresholdDecrement);
        return threshold_->fetch_sub(1, std::memory_order_seq_cst) <= 0 &&
               exhaustion_final();
    }

    // A threshold-exhaustion EMPTY is authoritative only while the ring is
    // open.  On a *closed* ring a pre-close enqueuer stalled between its
    // tail F&A and its entry CAS can still publish later, and the threshold
    // can burn out on holes (bulk enqueues waste tickets) before head ever
    // reaches the stalled ticket — but the list layer retires a segment on
    // EMPTY, so a late publish would strand the item in a dead segment.
    // The closed tail is frozen, which makes head >= tail a stable
    // emptiness check; draining head up to the frozen tail first
    // invalidates every outstanding ticket (each burned entry is advanced
    // or holds a stale index the publisher's CAS rejects), restoring
    // exactly the guarantee CRQ's head >= tail EMPTY gives LCRQ.
    bool exhaustion_final() const noexcept {
        const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
        if ((traw & detail::kMsb) == 0) return true;
        return head_->load(std::memory_order_seq_cst) >=
               (traw & detail::kIdxMask);
    }

    void repair_tail(std::uint64_t traw, std::uint64_t h) { catchup(traw, h); }

    // Dequeuers overshooting an empty ring leave head > tail; pull tail
    // forward so enqueuers do not burn an F&A round per wasted index.  The
    // CRQ analogue is fix_state; like it, a closed tail is frozen (the CAS
    // must not clobber the MSB).
    void catchup(std::uint64_t traw, std::uint64_t h) LCRQ_INJECT_NOEXCEPT {
        LCRQ_INJECT_POINT(kScqCatchup);
        for (;;) {
            if ((traw & detail::kMsb) != 0) return;
            if (traw >= h) return;
            if (counted_cas(*tail_, traw, h)) return;
            h = head_->load(std::memory_order_seq_cst);
            traw = tail_->load(std::memory_order_seq_cst);
        }
    }

    const std::uint64_t size_;   // 2 * capacity_ entries
    const std::uint64_t mask_;
    const unsigned idx_bits_;    // order + 1
    const std::uint64_t bottom_; // ⊥ == the all-ones index field
    const std::int64_t threshold_full_;  // 3n - 1
    mem::Slab slab_;
    Entry* entries_;

    CacheAligned<std::atomic<std::int64_t>, kDestructivePairSize> threshold_{0};
};

// The SCQ ring: the ticket core with no note bits, run with SCQ's hooks
// (fetch-or consumes, immediate retries), single and batch claims.
template <class Faa = HardwareFaa>
class ScqRing : public ScqTicketCore<0> {
  public:
    // Registry names of the bounded and list queues over this ring.
    static constexpr const char* kName = "scq";
    static constexpr const char* kListName = "lscq";
    // SCQ has no per-ring tuning (wCQ's is WcqConfig).
    struct Config {};
    static Config config_of(const QueueOptions&) noexcept { return {}; }

    explicit ScqRing(unsigned order, std::uint64_t seed_begin = 0,
                     std::uint64_t seed_end = 0, Config = {}, bool huge = false)
        : ScqTicketCore(Faa{}, order, seed_begin, seed_end, huge) {}

    // Reinitialize a drained, quiescent ring in place (cf. Crq::reset):
    // equivalent to reconstructing with the same order.  Caller owns the
    // ring exclusively; publication happens via the list-append CAS.
    void reset(std::uint64_t seed_begin = 0, std::uint64_t seed_end = 0,
               Config = {}) {
        init_ring(seed_begin, seed_end);
    }

    // Append idx (< capacity).  Loops until it lands or the ring is closed;
    // with the ≤ capacity outstanding-index invariant every F&A round that
    // fails does so because some other operation made progress.
    EnqueueResult enqueue(std::uint64_t idx) { return claim_enqueue<Faa>(*this, idx); }

    // Batched enqueue (TicketRing::claim_enqueue_bulk): wasted tickets shift
    // their indices to the next round, with no starvation close.  Returns
    // how many indices from the front of `idxs` were published; short only
    // once closed.
    std::size_t enqueue_bulk(std::span<const std::uint64_t> idxs) {
        return claim_enqueue_bulk<Faa>(*this, idxs).done;
    }

    // Remove and return the oldest index, or nullopt when empty.
    std::optional<std::uint64_t> dequeue() { return claim_dequeue<Faa>(*this); }

    // Batched dequeue (TicketRing::claim_dequeue_bulk): short only after an
    // EMPTY observation, so 0 means EMPTY.
    std::size_t dequeue_bulk(std::uint64_t* out, std::size_t max) {
        return claim_dequeue_bulk<Faa>(*this, out, max);
    }
};

// Per-round scratch size for the value-queue bulk paths.
inline constexpr std::size_t kScqBulkChunk = 64;

// One thread's kept slot in one list queue: the index a dequeue freed in
// life `ordinal` of `segment`, held back from fq for the same thread's next
// enqueue into that life.  The ordinal is part of the key because a
// recycled segment starts a new life whose fq already holds every index.
struct alignas(kCacheLineSize) ScqSlotCache {
    const void* segment = nullptr;  // nullptr: no slot kept
    std::uint64_t ordinal = 0;
    std::uint64_t index = 0;
};

// Rings with batch claims.  WcqRing has none: a wCQ help record describes
// one ticket, so a batch claim has no slow path a helper could finish.
template <class Ring>
concept ScqBatchRing =
    requires(Ring r, std::span<const std::uint64_t> in, std::uint64_t* out,
             std::size_t max) {
        { r.enqueue_bulk(in) } -> std::same_as<std::size_t>;
        { r.dequeue_bulk(out, max) } -> std::same_as<std::size_t>;
    };

// The SCQ-family value queue: an allocated-queue/free-queue pair of rings
// over a plain data array.  The array needs no atomics: the publishing
// entry CAS in aq (or fq) is the release, and the consuming load is the
// acquire, for each slot's handoff between writer and reader; a kept slot
// is written by the thread that read it.  Over WcqRing both rings carry the
// helping layer, so slot acquisition (fq) and publication (aq) both survive
// a descheduled peer.
template <class R>
class ScqValueQueue {
  public:
    using Ring = R;
    using Config = typename Ring::Config;
    using SlotCache = ScqSlotCache;

    // Capacity 2^order values, optionally seeded with one item (the list
    // layer appends segments "initialized to contain x", like LCRQ does
    // CRQs).  `huge` asks for hugepage slabs at kHugeMinRingOrder and up.
    explicit ScqValueQueue(unsigned order,
                           std::optional<value_t> first = std::nullopt,
                           Config cfg = {}, bool huge = false)
        : capacity_(std::uint64_t{1} << order),
          slot_bits_(order),
          huge_(huge && order >= kHugeMinRingOrder),
          home_cluster_(topo::current_cluster()),
          aq_(order, 0, first.has_value() ? 1 : 0, cfg, huge_),
          fq_(order, first.has_value() ? 1 : 0, capacity_, cfg, huge_) {
        data_slab_ = mem::slab_alloc(capacity_ * sizeof(value_t),
                                     kCacheLineSize, {huge_, home_cluster_});
        data_ = static_cast<value_t*>(check_alloc(data_slab_.ptr));
        if (huge_backed()) stats::count(stats::Event::kSegmentHuge);
        if (first.has_value()) {
            assert(is_enqueueable(*first));
            slot(0) = *first;
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    // The list layer's constructor: ring_order, huge_segments and the
    // ring's own knobs apply.
    ScqValueQueue(const QueueOptions& opt, std::optional<value_t> first)
        : ScqValueQueue(opt.ring_order, first, Ring::config_of(opt),
                        opt.huge_segments) {}

    ~ScqValueQueue() { mem::slab_free(data_slab_); }

    // In-place reinitialization for segment recycling (cf. Crq::reset).
    // Caller owns the segment exclusively and the order must match.
    void reset(const QueueOptions& opt,
               std::optional<value_t> first = std::nullopt) {
        assert((std::uint64_t{1} << opt.ring_order) == capacity_);
        aq_.reset(0, first.has_value() ? 1 : 0, Ring::config_of(opt));
        fq_.reset(first.has_value() ? 1 : 0, capacity_, Ring::config_of(opt));
        if (first.has_value()) {
            assert(is_enqueueable(*first));
            slot(0) = *first;
        }
        next.store(nullptr, std::memory_order_relaxed);
        cluster.store(0, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    ScqValueQueue(const ScqValueQueue&) = delete;
    ScqValueQueue& operator=(const ScqValueQueue&) = delete;

    EnqueueResult try_enqueue(value_t x) {
        const auto idx = fq_.dequeue();
        if (!idx.has_value()) return EnqueueResult::kFull;
        return publish(*idx, x);
    }

    std::optional<value_t> dequeue() {
        const auto idx = aq_.dequeue();
        if (!idx.has_value()) return std::nullopt;
        const value_t v = slot(*idx);
        fq_.enqueue(*idx);
        return v;
    }

    // The list layer's forms, over the calling thread's slot cache for the
    // queue.  An enqueue into the life the cache names uses the kept slot
    // and skips fq.  The cache is cleared before the publish, so a thread
    // killed there loses that one slot and never hands it on twice.
    EnqueueResult try_enqueue(value_t x, SlotCache& cache) {
        if (!holds_slot(cache)) return try_enqueue(x);
        cache.segment = nullptr;
        return publish(cache.index, x);
    }

    // A dequeue from the last segment keeps the slot it freed when the
    // cache holds none for this life; any other dequeue returns it to fq.
    // A cache naming an earlier segment is overwritten: head has passed
    // that segment, so nothing will enqueue into it again.
    std::optional<value_t> dequeue(SlotCache& cache) {
        const auto idx = aq_.dequeue();
        if (!idx.has_value()) return std::nullopt;
        const value_t v = slot(*idx);
        if (next.load(std::memory_order_relaxed) == nullptr && !holds_slot(cache)) {
            cache = {this, ordinal.load(std::memory_order_relaxed), *idx};
        } else {
            fq_.enqueue(*idx);
        }
        return v;
    }

    // Whether `cache` keeps a slot of this segment's current life.
    bool holds_slot(const SlotCache& cache) const noexcept {
        return cache.segment == this &&
               cache.ordinal == ordinal.load(std::memory_order_relaxed);
    }

    // Batched enqueue: each chunk is one fq claim round plus one aq claim
    // round, so a k-item batch costs ~2 F&As instead of 2k.  Stops at kFull
    // (no free slot right now) or kClosed (aq closed mid-batch; unpublished
    // slots recycled), reporting how many items from the front landed.
    BulkPut try_enqueue_bulk(std::span<const value_t> items)
        requires ScqBatchRing<Ring>
    {
        std::size_t done = 0;
        std::uint64_t idxs[kScqBulkChunk];
        while (done < items.size()) {
            const std::size_t want = std::min<std::size_t>(
                {items.size() - done, capacity_, kScqBulkChunk});
            const std::size_t got = fq_.dequeue_bulk(idxs, want);
            if (got == 0) return {done, EnqueueResult::kFull};
            for (std::size_t i = 0; i < got; ++i) {
                assert(is_enqueueable(items[done + i]));
                slot(idxs[i]) = items[done + i];
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
    std::size_t dequeue_bulk(value_t* out, std::size_t max)
        requires ScqBatchRing<Ring>
    {
        std::size_t n = 0;
        std::uint64_t idxs[kScqBulkChunk];
        while (n < max) {
            const std::size_t want =
                std::min<std::size_t>({max - n, capacity_, kScqBulkChunk});
            const std::size_t got = aq_.dequeue_bulk(idxs, want);
            for (std::size_t i = 0; i < got; ++i) out[n + i] = slot(idxs[i]);
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
    // Where slot s's value lives (tests pin the spread layout).
    const void* debug_slot_address(std::uint64_t s) const noexcept {
        return data_ + slot_position(s);
    }

    // The cluster whose thread allocated this segment's slabs (stable
    // across reset(): memory does not move when a segment is recycled).
    int home_cluster() const noexcept { return home_cluster_; }
    // Whether every slab (both rings and the data array) got its
    // MADV_HUGEPAGE request accepted.
    bool huge_backed() const noexcept {
        return data_slab_.huge_backed && aq_.huge_backed() && fq_.huge_backed();
    }

    // List-layer hooks (linked_segments.hpp); unused standalone.
    static constexpr const char* kListName = Ring::kListName;
    std::atomic<ScqValueQueue*> next{nullptr};
    std::atomic<int> cluster{0};
    std::atomic<std::uint64_t> ordinal{0};

  private:
    // Slot s lives at data_[spread(s)], so the few consecutive indices a
    // shallow run circulates do not share a line (see the header comment).
    std::uint64_t slot_position(std::uint64_t s) const noexcept {
        return spread(s, slot_bits_);
    }
    value_t& slot(std::uint64_t s) noexcept { return data_[slot_position(s)]; }

    // Write slot idx and publish it through aq.  On a closed aq the slot
    // (and its item) never became visible; recycle it.
    EnqueueResult publish(std::uint64_t idx, value_t x) {
        assert(is_enqueueable(x));
        slot(idx) = x;
        if (aq_.enqueue(idx) == EnqueueResult::kClosed) {
            fq_.enqueue(idx);
            return EnqueueResult::kClosed;
        }
        return EnqueueResult::kOk;
    }

    // data_ and slot_bits_ sit before the rings, on the first line with
    // the list hooks, so the kept-slot gate's loads of next and ordinal hit
    // the line every dequeue reads for data_.
    const std::uint64_t capacity_;
    const unsigned slot_bits_;  // order: capacity_ == 2^slot_bits_
    const bool huge_;  // hugepage request, pre-gated by kHugeMinRingOrder
    const int home_cluster_;
    value_t* data_;
    mem::Slab data_slab_;
    Ring aq_;  // allocated: indices of slots currently holding items
    Ring fq_;  // free: indices of vacant slots
};

template <class Faa = HardwareFaa>
using Scq = ScqValueQueue<ScqRing<Faa>>;

// Standalone bounded MPMC queue over one ScqValueQueue, capacity
// 2^bounded_order (the bounded-baseline knob, like BoundedMpmcQueue).
// try_enqueue passes the ring's answer through: kFull when no slot is
// free, kClosed only after base().close() (the wrapper never closes it).
// enqueue() applies backpressure by spinning.  Registry names come from
// the ring: "scq" and "wcq".
template <class Ring>
class BasicScqQueue {
  public:
    static constexpr const char* kName = Ring::kName;

    explicit BasicScqQueue(const QueueOptions& opt = {})
        : q_(bounded(opt), std::nullopt) {}

    void enqueue(value_t x) {
        SpinWait waiter;
        while (try_enqueue(x) != EnqueueResult::kOk) waiter.spin();
    }

    EnqueueResult try_enqueue(value_t x) { return q_.try_enqueue(x); }

    std::optional<value_t> dequeue() { return q_.dequeue(); }

    void enqueue_bulk(std::span<const value_t> items)
        requires ScqBatchRing<Ring>
    {
        std::size_t done = 0;
        SpinWait waiter;
        while (done < items.size()) {
            done += q_.try_enqueue_bulk(items.subspan(done)).done;
            if (done < items.size()) waiter.spin();
        }
    }

    std::size_t dequeue_bulk(value_t* out, std::size_t max)
        requires ScqBatchRing<Ring>
    {
        return q_.dequeue_bulk(out, max);
    }

    std::uint64_t capacity() const noexcept { return q_.capacity(); }
    // The waiters' read-only peek: the allocated ring's estimate is 0.
    bool looks_empty() const noexcept { return q_.approx_size() == 0; }
    ScqValueQueue<Ring>& base() noexcept { return q_; }

  private:
    // The segment's list-layer constructor, sized by the bounded knob.
    static QueueOptions bounded(QueueOptions opt) noexcept {
        opt.ring_order = opt.bounded_order;
        return opt;
    }

    ScqValueQueue<Ring> q_;
};

using ScqQueue = BasicScqQueue<ScqRing<HardwareFaa>>;

}  // namespace lcrq
