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
// The segment contract (ListSegment below) is met by Crq, Scq and Wcq in
// their own headers; the bulk operations exist only over segments that
// have batch paths (BulkListSegment).
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
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
// the list link (also the pool's), `cluster` the §4.1.1 handoff tag, and
// kListName the name of the list queue over the segment.
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

template <ListSegment Seg, class Hierarchy = NoHierarchy, bool Protected = true>
class LinkedSegments {
  public:
    static constexpr const char* kName = Seg::kListName;

    explicit LinkedSegments(const QueueOptions& opt = {})
        : opt_(opt),
          hierarchy_(opt.cluster_timeout_ns, opt.cluster_proceed_on_timeout),
          pool_(opt.segment_pool_cap) {
        Seg* s = alloc_segment();
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
        [[maybe_unused]] const bool ok = try_enqueue(x);
        assert(ok && "enqueue on a closed queue; use try_enqueue for shutdown");
    }

    // Enqueue unless the queue has been close()d.  Identical to enqueue()
    // on an open queue; returns false (dropping nothing) after close().
    bool try_enqueue(value_t x) {
        // Checked up front so that an enqueue *starting* after close()
        // returns can never succeed, even if an in-flight appender slips a
        // fresh open segment in behind the close.  One read-shared cache
        // line per operation; in-flight enqueues concurrent with close()
        // may still complete, which linearizes them before the close.
        if (closed_.load(std::memory_order_acquire)) return false;
        for (;;) {
            Seg* seg = acquire_tail();
            hierarchy_.enter(*seg);
            const EnqueueResult r = seg->try_enqueue(x);
            if (r == EnqueueResult::kOk || append(seg, r, x)) {
                release();
                return true;
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

    std::optional<value_t> dequeue() {
        for (;;) {
            Seg* seg = acquire(*head_);
            hierarchy_.enter(*seg);
            if (auto v = seg->dequeue()) {
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

    // Introspection for tests, benches, and monitoring.  In the protected
    // configuration both walks take hazard slots, so they are safe
    // concurrent with dequeue-driven segment retirement; unprotected
    // builds keep the plain walk (nothing is reclaimed before destruction).
    std::size_t segment_count() {
        return static_cast<std::size_t>(
            sum_segments([](Seg&) { return std::uint64_t{1}; }));
    }

    // Item-count estimate: the sum of the live segments' estimates.  Only
    // a snapshot under concurrency, and closed segments being drained can
    // each over-count by the enqueue tickets wasted there before they
    // closed.
    std::uint64_t approx_size() {
        return sum_segments([](Seg& s) { return s.approx_size(); });
    }
    HazardDomain& hazard_domain() noexcept { return domain_; }
    SegmentPool<Seg>& segment_pool() noexcept { return pool_; }

  private:
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

    // Move head past the drained `seg`; the winner retires it.
    // Unprotected, the drained segment stays linked from first_ and is
    // freed by the destructor.
    void swing_head(Seg* seg) {
        Seg* next = seg->next.load(std::memory_order_acquire);
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
        HazardThread& hp = my_hazard();
        hp.retire_impl(seg, &retire_to_pool, &pool_);
        if (pool_.capacity() != 0) hp.drain_now();
    }

    static void retire_to_pool(void* p, void* ctx) {
        static_cast<SegmentPool<Seg>*>(ctx)->push(static_cast<Seg*>(p));
    }

    // Read a list pointer for use: publish-fence-reread under hazard
    // protection (slot 0), or a plain acquire load in the unprotected
    // (leak-until-destruction) specialization.
    Seg* acquire(const std::atomic<Seg*>& src) {
        if constexpr (Protected) {
            return my_hazard().protect(src, 0);
        } else {
            return src.load(std::memory_order_acquire);
        }
    }
    void release() {
        if constexpr (Protected) my_hazard().clear(0);
    }

    // Sum fn(segment) over the live list.  Operations use hazard slot 0;
    // this walk uses slots 1-3 so it can run concurrently with them from
    // the same thread's record.
    //
    // Safety of the protected walk: segments are retired strictly front to
    // back, and only after head_ swings past them.  Each step publishes
    // the next pointer into a spare slot and then revalidates that head_
    // still equals the anchor read at the start of the attempt.  If it
    // does, no segment at or behind the anchor has been retired yet — in
    // particular the just-published one — and (seq_cst publish before the
    // revalidating load, which precedes the retiring head-swing in the
    // total order) any future scan must see our slot, so the segment stays
    // live while we hold it.  If head_ moved, the chain may be stale: the
    // attempt restarts from the new head.
    template <typename Fn>
    std::uint64_t sum_segments(Fn&& fn) {
        if constexpr (!Protected) {
            std::uint64_t n = 0;
            for (Seg* s = head_->load(std::memory_order_acquire); s != nullptr;
                 s = s->next.load(std::memory_order_acquire)) {
                n += fn(*s);
            }
            return n;
        } else {
            HazardThread& hp = my_hazard();
            for (;;) {
                std::uint64_t n = 0;
                Seg* const anchor = hp.protect(*head_, 1);
                Seg* cur = anchor;
                std::size_t slot = 2;
                bool restart = false;
                for (;;) {
                    n += fn(*cur);
                    if (cur->next.load(std::memory_order_acquire) == nullptr) break;
                    Seg* next = hp.protect(cur->next, slot);
                    if (next == nullptr) break;
                    LCRQ_INJECT_POINT(kApproxSizeWalk);
                    if (head_->load(std::memory_order_seq_cst) != anchor) {
                        restart = true;
                        break;
                    }
                    cur = next;
                    slot = (slot == 2) ? 3 : 2;
                }
                hp.clear(1);
                hp.clear(2);
                hp.clear(3);
                if (!restart) return n;
            }
        }
    }

    HazardThread& my_hazard() {
        const std::size_t id = thread_index();
        auto& slot = hazard_threads_[id];
        if (slot == nullptr) {
            slot = std::make_unique<HazardThread>(domain_);
        }
        return *slot;
    }

    QueueOptions opt_;
    Hierarchy hierarchy_;
    // Declared before domain_: retire-to-pool deleters run from hazard
    // drains as late as ~HazardDomain (and the per-thread record releases
    // in hazard_threads_'s destructors), all of which must find the pool
    // alive.  Members destroy in reverse order, so the pool outlives both.
    SegmentPool<Seg> pool_;
    HazardDomain domain_;
    // Construction-time segment; anchors the destructor when unprotected.
    Seg* first_ = nullptr;
    // Shutdown flag: read-shared on the enqueue path, written once.
    std::atomic<bool> closed_{false};
    CacheAligned<std::atomic<Seg*>, kDestructivePairSize> head_{nullptr};
    CacheAligned<std::atomic<Seg*>, kDestructivePairSize> tail_{nullptr};
    // Lazily constructed per-thread hazard attachments, indexed by the
    // dense thread id; a slot is only touched by the thread owning that id.
    std::unique_ptr<HazardThread> hazard_threads_[kMaxThreads];
};

}  // namespace lcrq
