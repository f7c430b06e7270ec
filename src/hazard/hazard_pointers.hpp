// Hazard-pointer safe memory reclamation (Michael, IEEE TPDS 2004).
//
// LCRQ retires a whole CRQ segment when dequeuers move the list head past
// it, and the MS queue retires individual nodes; in both cases a concurrent
// operation may still hold a reference it read from head/tail (paper §4.2,
// "Memory reclamation").  A thread publishes the pointer it is about to
// dereference in a hazard slot; retirement only frees objects no slot
// protects.
//
// Design notes:
//  * A domain holds one record per dense thread id in a ThreadTable
//    (arch/thread_id.hpp), made by its thread on first use.  A record
//    outlives its thread and passes with the id to the id's next owner, so
//    short-lived threads (tests spawn thousands) reuse records, and
//    ThreadIdPool's one-owner-per-id rule keeps each record single-writer.
//  * Protection uses the publish / fence / revalidate protocol.  The
//    publishing store is seq_cst so it is globally visible before the
//    revalidating load.
//  * Retired objects live on the retiring thread's record.  Reclamation is
//    amortized: a scan runs once the local list exceeds a threshold
//    proportional to the records a scan visits, giving O(1) amortized scan
//    cost per retirement and a bounded number of unreclaimed objects.  An
//    exited thread's undrained leftovers wait on its record for the id's
//    next owner or the domain destructor.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "arch/cacheline.hpp"
#include "arch/thread_id.hpp"

namespace lcrq {

namespace detail {

// The deleter carries an opaque context so retirement can do more than
// `delete`: the segment pool registers a retire-to-pool deleter whose ctx
// is the pool (segment_pool.hpp).  It runs once the scan proves no slot
// protects `ptr`.
struct RetiredObject {
    void* ptr;
    void (*deleter)(void*, void* ctx);
    void* ctx;
};

// A line pair, so the adjacent-line prefetcher never couples one thread's
// slot stores to another's.
struct alignas(kDestructivePairSize) HazardRecord {
    static constexpr std::size_t kSlots = 4;

    std::atomic<void*> slots[kSlots] = {};

    // Owned exclusively by the thread holding this record's thread id.
    std::vector<RetiredObject> retired;
    // retired.size() as of the owner's last retire or drain: what
    // retired_count() reads while the owner pushes and drains.
    std::atomic<std::size_t> retired_tally{0};
    // The protected pointers a drain of `retired` collects, kept so a
    // drain allocates nothing once it has grown.  Used only by whoever may
    // drain `retired`: the owner, or scan() at quiescence.
    std::vector<void*> protected_ptrs;
};

}  // namespace detail

// A reclamation domain.  Queues embed their own domain so tests can destroy
// a queue (and assert full reclamation) without draining a global registry.
// protect/clear/retire/drain_now act on the calling thread's record.
class HazardDomain {
  public:
    HazardDomain() = default;
    ~HazardDomain();

    HazardDomain(const HazardDomain&) = delete;
    HazardDomain& operator=(const HazardDomain&) = delete;

    // Protect `src`'s current value in slot `slot` and return it.  Loops
    // until the published pointer matches a re-read of src, so the returned
    // pointer cannot be reclaimed until the slot is cleared.
    template <typename T>
    T* protect(const std::atomic<T*>& src, std::size_t slot) {
        std::atomic<void*>& cell = records_.local().slots[slot];
        T* ptr = src.load(std::memory_order_acquire);
        for (;;) {
            cell.store(ptr, std::memory_order_seq_cst);
            T* again = src.load(std::memory_order_seq_cst);
            if (again == ptr) return ptr;
            ptr = again;
        }
    }

    void clear(std::size_t slot) {
        records_.local().slots[slot].store(nullptr, std::memory_order_release);
    }
    void clear_all() {
        for (auto& s : records_.local().slots) s.store(nullptr, std::memory_order_release);
    }

    // Retire an object: freed by a later scan, once unprotected.
    template <typename T>
    void retire(T* ptr) {
        retire(ptr, [](void* p, void*) { delete static_cast<T*>(p); }, nullptr);
    }
    void retire(void* ptr, void (*deleter)(void*, void*), void* ctx);

    // Scan this thread's retired list now instead of waiting for the
    // amortization threshold.  The retire-to-pool path calls this so a
    // drained ring reaches the pool while the close that retired it is
    // still hot — at the default threshold a segment would sit retired for
    // ~2*kSlots*records closes before becoming reusable, which defeats
    // pooling for every queue whose close rate is below that.
    void drain_now();

    // Drain every retired object whose pointer is currently unprotected,
    // including objects parked on records owned by live threads.  Only
    // safe in a quiescent state (no concurrent retire/protect) — tests and
    // shutdown.  The hot path never calls this; it drains the retiring
    // thread's own record when its list crosses the threshold.
    void scan();

    // Diagnostics.  retired_count() may run while threads retire and
    // drain: it sums the records' tallies, a snapshot.
    std::size_t retired_count() const;
    std::size_t record_count() const;

  private:
    void collect_protected(std::vector<void*>& out) const;
    // Free the unprotected entries of `rec`'s retired list, keeping the rest.
    void drain(detail::HazardRecord& rec);

    // A record is made before its thread's first slot store, so a scan
    // that follows an unlink visits every slot that could protect the
    // unlinked pointer.
    ThreadTable<detail::HazardRecord> records_;
};

}  // namespace lcrq
