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
//  * A domain owns a lock-free list of thread records.  Records are
//    acquired/released with a CAS'd flag, so short-lived threads (tests
//    spawn thousands) reuse records instead of growing the list.
//  * Protection uses the publish / fence / revalidate protocol.  The
//    publishing store is seq_cst so it is globally visible before the
//    revalidating load.
//  * Retired objects live on the retiring thread's record.  Reclamation is
//    amortized: a scan runs once the local list exceeds a threshold
//    proportional to the number of live slots, giving O(1) amortized scan
//    cost per retirement and a bounded number of unreclaimed objects.  A
//    released record keeps its undrained leftovers for the next owner or
//    the domain destructor.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/cacheline.hpp"

namespace lcrq {

class HazardDomain;

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

struct alignas(kCacheLineSize) HazardRecord {
    static constexpr std::size_t kSlots = 4;

    std::atomic<void*> slots[kSlots] = {};
    std::atomic<bool> active{false};
    std::atomic<HazardRecord*> next{nullptr};

    // Owned exclusively by the thread holding `active`.
    std::vector<RetiredObject> retired;
};

}  // namespace detail

// A reclamation domain.  Queues embed their own domain so tests can destroy
// a queue (and assert full reclamation) without draining a global registry.
class HazardDomain {
  public:
    HazardDomain() = default;
    ~HazardDomain();

    HazardDomain(const HazardDomain&) = delete;
    HazardDomain& operator=(const HazardDomain&) = delete;

    // Drain every retired object whose pointer is currently unprotected,
    // including objects parked on records owned by live threads.  Only
    // safe in a quiescent state (no concurrent retire/protect) — tests and
    // shutdown.  The hot path never calls this; it drains the retiring
    // thread's own record when its list crosses the threshold.
    void scan();

    // Diagnostics.
    std::size_t retired_count() const;
    std::size_t record_count() const;

  private:
    friend class HazardThread;

    detail::HazardRecord* acquire_record();
    void release_record(detail::HazardRecord* rec);
    void collect_protected(std::vector<void*>& out) const;
    // Free the unprotected entries of `objs`, keeping the rest.
    void drain(std::vector<detail::RetiredObject>& objs);

    std::atomic<detail::HazardRecord*> head_{nullptr};
    std::atomic<std::size_t> record_estimate_{0};
};

// A thread's attachment to a domain: holds one HazardRecord for the
// lifetime of the object.  Queues cache one per thread (hazard_threads_,
// indexed by the dense thread id); direct construction is for tests.
class HazardThread {
  public:
    explicit HazardThread(HazardDomain& domain)
        : domain_(&domain), record_(domain.acquire_record()) {}
    ~HazardThread() {
        if (record_ != nullptr) domain_->release_record(record_);
    }

    HazardThread(const HazardThread&) = delete;
    HazardThread& operator=(const HazardThread&) = delete;

    // Protect `src`'s current value in slot `slot` and return it.  Loops
    // until the published pointer matches a re-read of src, so the returned
    // pointer cannot be reclaimed until the slot is cleared.
    template <typename T>
    T* protect(const std::atomic<T*>& src, std::size_t slot) {
        std::atomic<void*>& cell = record_->slots[slot];
        T* ptr = src.load(std::memory_order_acquire);
        for (;;) {
            cell.store(ptr, std::memory_order_seq_cst);
            T* again = src.load(std::memory_order_seq_cst);
            if (again == ptr) return ptr;
            ptr = again;
        }
    }

    void clear(std::size_t slot) {
        record_->slots[slot].store(nullptr, std::memory_order_release);
    }
    void clear_all() {
        for (auto& s : record_->slots) s.store(nullptr, std::memory_order_release);
    }

    // Retire an object: freed by a later scan, once unprotected.
    template <typename T>
    void retire(T* ptr) {
        retire_impl(ptr, [](void* p, void*) { delete static_cast<T*>(p); },
                    nullptr);
    }
    void retire_impl(void* ptr, void (*deleter)(void*, void*), void* ctx);

    // Scan this thread's retired list now instead of waiting for the
    // amortization threshold.  The retire-to-pool path calls this so a
    // drained ring reaches the pool while the close that retired it is
    // still hot — at the default threshold a segment would sit retired for
    // ~2*kSlots*records closes before becoming reusable, which defeats
    // pooling for every queue whose close rate is below that.
    void drain_now();

    HazardDomain& domain() { return *domain_; }

  private:
    HazardDomain* domain_;
    detail::HazardRecord* record_;
};

}  // namespace lcrq
