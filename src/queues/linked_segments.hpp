// The list layer of LCRQ, LSCQ and LwCQ: a Michael–Scott list whose nodes
// are whole bounded segments (paper §4.2, corrected Figure 5).
//
// Nearly all activity happens inside one segment; the list head/tail
// pointers only move when a segment closes (enqueue side) or drains
// (dequeue side), so they are uncontended in the common case.
//
//   enqueue: work in the tail segment; on FULL close it (SCQ/wCQ never
//            close themselves, so the list supplies the tantrum CRQ performs
//            internally), and on FULL or CLOSED append a new segment seeded
//            with the item (one appender wins and is done; the rest retry in
//            the new tail).
//   dequeue: work in the head segment; on EMPTY with a successor present,
//            try the segment once more (the corrected Fig. 5 lines 146-147 —
//            an item may have landed between the EMPTY and the next check),
//            then swing head and retire the drained segment.
//
// Retired segments are reclaimed with hazard pointers: an operation protects
// the segment pointer it read from head/tail before entering it (§4.2).  The
// paper's footnote 6 notes every variant pays this publish-fence-reread
// cost; Protected=false removes it (and with it all reclamation until
// destruction) so the ablation bench can price it.
//
// Segments are recycled through a bounded per-queue pool (segment_pool.hpp):
// appenders allocate from it, losing appenders park their speculative
// segment in it, and drained segments return to it through the hazard path
// with a retire-to-pool deleter — the scan proves no thread still holds the
// pointer, which keeps the head/tail CASes ABA-safe across reuse.
// QueueOptions::segment_pool_cap = 0 is the ablation (every close pays
// malloc/free).
//
// The segment contract (ListSegment below) is met by Crq (crq.hpp) and by
// the SCQ family's one value queue, Scq/Wcq (scq.hpp); the bulk operations
// exist only over segments that have batch paths (BulkListSegment).  Over
// segments with list forms that take a slot cache (SlotKeepingSegment: Scq
// and Wcq), the list owns one cache per thread and hands the calling
// thread's to single-item enqueues and dequeues, so a dequeue's freed slot
// can go to the same thread's next enqueue without crossing fq.
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/inject.hpp"
#include "arch/thread_id.hpp"
#include "hazard/hazard_pointers.hpp"
#include "queues/hierarchy.hpp"
#include "queues/queue_common.hpp"
#include "queues/segment_pool.hpp"

namespace lcrq {

// try_enqueue answers kFull (SCQ/wCQ: every slot is in flight; CRQ never
// does) or kClosed (closed by a tantrum, the list, or close()).  `next` is
// the list link (also the pool's), `cluster` the §4.1.1 handoff tag,
// `ordinal` the segment's position in the list (stamped by the appender),
// and kListName the name of the list queue over the segment.  Every segment
// holds 2^QueueOptions::ring_order items (Crq and the SCQ value queue both
// assert it on reset).
template <typename S>
concept ListSegment = requires(S s, const QueueOptions& opt,
                               std::optional<value_t> first, value_t v) {
    requires std::constructible_from<S, const QueueOptions&, std::optional<value_t>>;
    s.reset(opt, first);
    { s.try_enqueue(v) } -> std::same_as<EnqueueResult>;
    { s.dequeue() } -> std::same_as<std::optional<value_t>>;
    s.close();
    { s.approx_size() } -> std::convertible_to<std::uint64_t>;
    { s.next.load() } -> std::same_as<S*>;
    { s.cluster.load() } -> std::same_as<int>;
    { s.ordinal.load() } -> std::same_as<std::uint64_t>;
    { S::kListName } -> std::convertible_to<const char*>;
};

// Batch paths: try_enqueue_bulk stores a prefix and says why it stopped;
// dequeue_bulk is short only on an empty observation.
template <typename S>
concept BulkListSegment =
    ListSegment<S> &&
    requires(S s, std::span<const value_t> in, value_t* out, std::size_t max) {
        { s.try_enqueue_bulk(in) } -> std::same_as<BulkPut>;
        { s.dequeue_bulk(out, max) } -> std::same_as<std::size_t>;
    };

// Segments whose list forms of try_enqueue and dequeue take the calling
// thread's slot cache for the queue (scq.hpp's ScqSlotCache).
template <typename S>
concept SlotKeepingSegment =
    ListSegment<S> && requires(S s, typename S::SlotCache& cache, value_t v) {
        { s.try_enqueue(v, cache) } -> std::same_as<EnqueueResult>;
        { s.dequeue(cache) } -> std::same_as<std::optional<value_t>>;
    };

namespace detail {

// The per-thread slot caches a list over S owns: none unless S keeps slots.
template <typename S>
struct SlotCaches {
    struct type {};
};
template <SlotKeepingSegment S>
struct SlotCaches<S> {
    using type = ThreadTable<typename S::SlotCache>;
};

}  // namespace detail

template <ListSegment Seg, class Hierarchy = NoHierarchy, bool Protected = true>
class LinkedSegments {
  public:
    static constexpr const char* kName = Seg::kListName;
    static constexpr bool kKeepsSlots = SlotKeepingSegment<Seg>;

    explicit LinkedSegments(const QueueOptions& opt = {})
        : opt_(opt),
          hierarchy_(opt.cluster_timeout_ns, opt.cluster_proceed_on_timeout),
          pool_(opt.segment_pool_cap) {
        Seg* s = alloc_segment();
        s->ordinal.store(0, std::memory_order_relaxed);
        first_ = s;
        head_->store(s, std::memory_order_relaxed);
        tail_->store(s, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    ~LinkedSegments() {
        // Single-threaded at destruction.  With hazard protection, segments
        // behind head were retired into the domain (freed when the domain
        // member is destroyed) and the live suffix is deleted here;
        // without protection nothing was ever freed, so the walk starts at
        // the very first segment.
        Seg* s = Protected ? head_->load(std::memory_order_relaxed) : first_;
        while (s != nullptr) {
            Seg* next = s->next.load(std::memory_order_relaxed);
            delete s;
            s = next;
        }
    }

    LinkedSegments(const LinkedSegments&) = delete;
    LinkedSegments& operator=(const LinkedSegments&) = delete;

    void enqueue(value_t x) {
        [[maybe_unused]] const EnqueueResult r = try_enqueue(x);
        assert(r == EnqueueResult::kOk &&
               "enqueue on a closed queue; use try_enqueue for shutdown");
    }

    // Enqueue unless the queue has been close()d.  Identical to enqueue()
    // on an open queue; answers kClosed (dropping nothing) after close(),
    // and never kFull: a full segment is replaced, not reported.
    EnqueueResult try_enqueue(value_t x) {
        // Checked up front so that an enqueue *starting* after close()
        // returns can never succeed, even if an in-flight appender slips a
        // fresh open segment in behind the close.  One read-shared cache
        // line per operation; in-flight enqueues concurrent with close()
        // may still complete, which linearizes them before the close.
        if (closed_.load(std::memory_order_acquire)) return EnqueueResult::kClosed;
        for (;;) {
            Seg* seg = acquire_tail();
            hierarchy_.enter(*seg);
            const EnqueueResult r = enqueue_into(*seg, x);
            if (r == EnqueueResult::kOk || append(seg, r, x)) {
                release();
                return EnqueueResult::kOk;
            }
        }
    }

    // Batched enqueue: every item lands, in order, with one hazard
    // acquisition and (in the common case) one F&A per batch instead of
    // one per item.  A batch that hits a closed or full segment spills its
    // remainder across the boundary: the appender seeds the fresh segment
    // with the next item (as in try_enqueue) and continues the batch there.
    void enqueue_bulk(std::span<const value_t> items)
        requires BulkListSegment<Seg>
    {
        [[maybe_unused]] const bool ok = try_enqueue_bulk(items);
        assert(ok && "enqueue_bulk on a closed queue");
    }

    // Bulk form of try_enqueue.  The closed flag is checked once, up
    // front: a batch is one operation for shutdown purposes — either it
    // started before close() returned (and then every item lands, exactly
    // like an in-flight single enqueue) or it fails whole.  Returns false
    // (enqueueing nothing) only in the latter case.
    bool try_enqueue_bulk(std::span<const value_t> items)
        requires BulkListSegment<Seg>
    {
        if (items.empty()) return true;
        if (closed_.load(std::memory_order_acquire)) return false;
        std::size_t done = 0;
        for (;;) {
            Seg* seg = acquire_tail();
            hierarchy_.enter(*seg);
            const BulkPut r = seg->try_enqueue_bulk(items.subspan(done));
            done += r.done;
            if (done == items.size() ||
                (append(seg, r.status, items[done]) && ++done == items.size())) {
                release();
                return true;
            }
        }
    }

    // Graceful shutdown: no enqueue that starts after close() returns can
    // succeed; items already in the queue remain dequeueable (drain, then
    // dequeue() keeps returning nullopt).  Implemented by closing the tail
    // segment under a sticky flag that stops fresh segments from being
    // appended, so the tantrum-queue close mechanism doubles as the
    // shutdown path.
    void close() {
        closed_.store(true, std::memory_order_seq_cst);
        acquire_tail()->close();
        release();
    }

    bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

    // Unbounded: the list grows a segment instead of refusing.
    static constexpr std::uint64_t capacity() noexcept { return 0; }

    std::optional<value_t> dequeue() {
        for (;;) {
            Seg* seg = acquire(*head_);
            hierarchy_.enter(*seg);
            if (auto v = dequeue_from(*seg)) {
                release();
                return v;
            }
            LCRQ_INJECT_POINT(kListEmptyObserved);
            if (seg->next.load(std::memory_order_acquire) == nullptr) {
                release();
                return std::nullopt;
            }
            // A successor exists, so this segment takes no more enqueues —
            // but an enqueue may have completed in it between our EMPTY and
            // the next check above.  Without this second attempt items are
            // lost (the proceedings-version bug).
            if (auto v = seg->dequeue()) {
                release();
                return v;
            }
            swing_head(seg);
        }
    }

    // Batched dequeue: up to `max` items into `out`, returning the count;
    // 0 means the queue was observed empty.  One hazard acquisition per
    // segment visited (not per item) and one F&A per claim round.  A batch
    // whose current segment reports empty follows the exact single-op
    // switch protocol — second attempt (the corrected Fig. 5 retry), then
    // swing head and retire — and continues filling from the successor.
    std::size_t dequeue_bulk(value_t* out, std::size_t max)
        requires BulkListSegment<Seg>
    {
        if (max == 0) return 0;
        std::size_t n = 0;
        for (;;) {
            Seg* seg = acquire(*head_);
            hierarchy_.enter(*seg);
            n += seg->dequeue_bulk(out + n, max - n);
            if (n == max) break;
            // The segment reported empty (dequeue_bulk returns short only
            // on an empty observation).
            LCRQ_INJECT_POINT(kListEmptyObserved);
            if (seg->next.load(std::memory_order_acquire) == nullptr) break;
            n += seg->dequeue_bulk(out + n, max - n);
            if (n == max) break;
            swing_head(seg);
        }
        release();
        return n;
    }

    // Live segments in O(1): the ordinal span from head to tail, plus the
    // successor an appender may have linked before swinging tail.  Only a
    // snapshot under concurrency.
    std::size_t segment_count() {
        return with_ends([](Seg* h, Seg* t) -> std::size_t {
            return ordinal_span(h, t) + 1 +
                   (t->next.load(std::memory_order_acquire) != nullptr ? 1 : 0);
        });
    }

    // Item-count estimate in O(1): the head and tail segments' own
    // estimates plus R items for every segment between them (the
    // ordinals say how many there are).  Only a snapshot under
    // concurrency; a middle segment counts as R items however many it got
    // before it closed, so tantrum-closed middle segments and the enqueue
    // tickets a closed head wasted make it over-count, never under-count
    // when quiescent.  For introspection: it protects both ends and reads
    // four shared lines, so the blocking facade keeps per-thread tallies
    // (blocking_queue.hpp) instead of calling it per operation.
    std::uint64_t approx_size() {
        return with_ends([this](Seg* h, Seg* t) {
            std::uint64_t n = h->approx_size();
            if (t != h) n += t->approx_size() + (ordinal_span(h, t) - 1) * seg_capacity_;
            return n;
        });
    }

    // Read-only emptiness peek for waiters: true when the head segment's
    // estimate is 0 and it has no successor.  Loads only (plus this
    // thread's own hazard slot), so idle pollers leave the ring's shared
    // lines clean.  A hint: "empty" can be stale by the time it returns,
    // so a waiter must still make a real dequeue before it sleeps.
    bool looks_empty() {
        Seg* h = acquire(*head_);
        const bool empty =
            h->approx_size() == 0 && h->next.load(std::memory_order_acquire) == nullptr;
        release();
        return empty;
    }
    HazardDomain& hazard_domain() noexcept { return domain_; }
    SegmentPool<Seg>& segment_pool() noexcept { return pool_; }

    // Test peer for a quiescent queue: f(segment, kept) for every live
    // segment, head to tail, where kept counts the threads whose cache
    // holds a slot of the segment's current life.
    template <typename F>
    void debug_census(F f)
        requires kKeepsSlots
    {
        for (Seg* s = head_->load(); s != nullptr; s = s->next.load()) {
            std::uint64_t kept = 0;
            caches_.for_each([&](const auto& c) { kept += s->holds_slot(c) ? 1 : 0; });
            f(*s, kept);
        }
    }

  private:
    // One item into or out of `seg`, over this thread's slot cache where
    // the segment keeps slots.
    EnqueueResult enqueue_into(Seg& seg, value_t x) {
        if constexpr (kKeepsSlots) {
            return seg.try_enqueue(x, caches_.local());
        } else {
            return seg.try_enqueue(x);
        }
    }
    std::optional<value_t> dequeue_from(Seg& seg) {
        if constexpr (kKeepsSlots) {
            return seg.dequeue(caches_.local());
        } else {
            return seg.dequeue();
        }
    }

    // Protect the tail segment, first helping swing a tail that lags
    // behind an appended segment.
    Seg* acquire_tail() {
        for (;;) {
            Seg* seg = acquire(*tail_);
            Seg* next = seg->next.load(std::memory_order_acquire);
            if (next == nullptr) return seg;
            counted_cas_ptr(*tail_, seg, next);
        }
    }

    // `seg` refused with `r`: close it if merely full, so every enqueuer
    // diverts, then try to append a fresh segment seeded with x.  Returns
    // false when another appender won; the caller retries in the new tail.
    bool append(Seg* seg, EnqueueResult r, value_t x) {
        if (r == EnqueueResult::kFull) seg->close();
        Seg* fresh = alloc_segment(x);
        Seg* expected = nullptr;
        stats::count(stats::Event::kCas);
        // Stamped under exclusive ownership; the linking CAS publishes it.
        fresh->ordinal.store(seg->ordinal.load(std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
        if (seg->next.compare_exchange_strong(expected, fresh,
                                              std::memory_order_seq_cst)) {
            LCRQ_INJECT_POINT(kListAppend);
            counted_cas_ptr(*tail_, seg, fresh);
            stats::count(stats::Event::kCrqAppend);
            return true;
        }
        stats::count(stats::Event::kCasFailure);
        // Never published, so it can go straight back to the pool.
        pool_.push(fresh);
        return false;
    }

    // Move head past the drained `seg`; the winner retires it.  A tail
    // still on `seg` (its appender not yet done swinging it) is helped
    // forward first, so head_ never passes tail_: a segment tail_ names is
    // never retired, which is what lets acquire_tail and approx_size
    // protect it.  Unprotected, the drained segment stays linked from
    // first_ and is freed by the destructor.
    void swing_head(Seg* seg) {
        Seg* next = seg->next.load(std::memory_order_acquire);
        if (tail_->load(std::memory_order_acquire) == seg) counted_cas_ptr(*tail_, seg, next);
        LCRQ_INJECT_POINT(kListHeadSwing);
        if (counted_cas_ptr(*head_, seg, next)) {
            release();
            if constexpr (Protected) retire_segment(seg);
        }
    }

    // Fresh segment for construction or append: recycled from the pool
    // when possible, allocated otherwise.  The reset happens under
    // exclusive ownership; the appending CAS publishes it.
    Seg* alloc_segment(std::optional<value_t> first = std::nullopt) {
        if (Seg* s = pool_.try_pop()) {
            s->reset(opt_, first);
            stats::count(stats::Event::kSegmentReuse);
            return s;
        }
        stats::count(stats::Event::kSegmentAlloc);
        return check_alloc(new (std::nothrow) Seg(opt_, first));
    }

    // A drained segment head_ swung past: concurrent operations may still
    // hold it, so it must cross a hazard scan before the pool may hand it
    // out again.  The eager drain is what makes recycling effective — at
    // the amortized threshold (~2*kSlots*records retirements) a segment
    // would sit parked on the record for dozens of closes first; draining
    // here costs one O(records) scan per close, amortized against the O(R)
    // ring reset the recycle saves.  Without a pool there is nothing to
    // hurry for, so the amortized scan stays.
    void retire_segment(Seg* seg) {
        domain_.retire(seg, &retire_to_pool, &pool_);
        if (pool_.capacity() != 0) domain_.drain_now();
    }

    static void retire_to_pool(void* p, void* ctx) {
        static_cast<SegmentPool<Seg>*>(ctx)->push(static_cast<Seg*>(p));
    }

    // Read a list pointer for use: publish-fence-reread under hazard
    // protection, or a plain acquire load in the unprotected
    // (leak-until-destruction) specialization.
    Seg* acquire(const std::atomic<Seg*>& src, std::size_t slot = 0) {
        if constexpr (Protected) {
            return domain_.protect(src, slot);
        } else {
            return src.load(std::memory_order_acquire);
        }
    }
    void release(std::size_t slot = 0) {
        if constexpr (Protected) domain_.clear(slot);
    }

    // Call f(head, tail) with both segments protected.  Introspection
    // uses slots 1-2, so it can run concurrently with this thread's own
    // operations on slot 0.  head_ never passes tail_ (swing_head), so a
    // tail read after the head is the head or a later segment; only a
    // later one needs its own slot.
    template <typename F>
    auto with_ends(F f) {
        Seg* const h = acquire(*head_, 1);
        Seg* t = h;
        if (tail_->load(std::memory_order_acquire) != h) t = acquire(*tail_, 2);
        const auto r = f(h, t);
        if (t != h) release(2);
        release(1);
        return r;
    }

    static std::uint64_t ordinal_span(const Seg* h, const Seg* t) {
        return t->ordinal.load(std::memory_order_relaxed) -
               h->ordinal.load(std::memory_order_relaxed);
    }

    QueueOptions opt_;
    const std::uint64_t seg_capacity_ = std::uint64_t{1} << opt_.ring_order;
    Hierarchy hierarchy_;
    // Declared before domain_: retire-to-pool deleters run from hazard
    // drains as late as ~HazardDomain, which must find the pool alive.
    // Members destroy in reverse order, so the pool outlives the domain.
    SegmentPool<Seg> pool_;
    HazardDomain domain_;
    // Construction-time segment; anchors the destructor when unprotected.
    Seg* first_ = nullptr;
    // Shutdown flag: read-shared on the enqueue path, written once.
    std::atomic<bool> closed_{false};
    CacheAligned<std::atomic<Seg*>, kDestructivePairSize> head_{nullptr};
    CacheAligned<std::atomic<Seg*>, kDestructivePairSize> tail_{nullptr};
    // Each thread's kept slot (SlotKeepingSegment only).  One table per
    // queue: a slot kept in one queue is never offered to another.
    [[no_unique_address]] typename detail::SlotCaches<Seg>::type caches_;
};

}  // namespace lcrq
