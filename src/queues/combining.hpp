// The combining constructions of Fatourou & Kallimanis (PPoPP 2012) and the
// queues the paper compares against that are built on them.
//
// CC-Synch: threads announce operations by SWAPping a fresh node onto a
// shared list tail; the thread whose node sits at the list head becomes
// *combiner* and applies up to `bound` announced operations to the
// protected object while the others spin locally on their node's wait
// flag.  Synchronization cost is one SWAP per operation, but the work
// itself is serialized through the combiner — the design point the paper
// contrasts LCRQ against.
//
// The per-thread "spare node" trick from the original algorithm avoids
// allocation on the hot path: after publishing node A and receiving node B
// from the SWAP, the thread keeps B as its spare for the next operation.
//
// H-Synch: one CC-Synch per cluster, whose combiners all hold one global
// lock while they apply their cluster's batch.  Whole batches of
// same-cluster operations execute back to back, so the shared object's
// cache lines cross sockets once per batch instead of once per operation —
// the same locality argument as LCRQ+H's cluster handoff, but with
// blocking.
//
// CC-Queue and H-Queue: the Michael–Scott two-lock queue with each lock
// replaced by a CC-Synch or an H-Synch instance: one instance serializes
// all enqueues, the other all dequeues, and the two ends run in parallel.
// H-Queue is the strongest combining baseline in the paper's
// four-processor experiments.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/thread_id.hpp"
#include "queues/queue_common.hpp"
#include "queues/two_lock_queue.hpp"
#include "topology/topology.hpp"

namespace lcrq {

// Request: an operation on the protected object.  For the queue use-cases
// Op encodes enqueue(value) / dequeue(); Apply is supplied by the owner.
struct CombineRequest {
    value_t arg = kBottom;
    value_t result = kBottom;
    bool is_enqueue = false;
};

// The lock a plain CC-Synch combiner holds while it applies its batch.
struct NoGuard {
    void lock() noexcept {}
    void unlock() noexcept {}
};

template <typename Object, typename ApplyFn, typename Guard = NoGuard>
class CcSynch {
  public:
    // `bound`: max operations one combiner applies before handing off.
    // `guard`: held by the combiner over each batch; must outlive this.
    CcSynch(Object& object, ApplyFn apply, unsigned bound, Guard& guard = no_guard_)
        : object_(object), apply_(apply), bound_(bound == 0 ? 1 : bound), guard_(guard) {
        tail_->store(check_alloc(new (std::nothrow) Node), std::memory_order_relaxed);
        for (auto& s : spare_) s = nullptr;
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    ~CcSynch() {
        delete tail_->load(std::memory_order_relaxed);
        for (auto* s : spare_) delete s;
    }

    CcSynch(const CcSynch&) = delete;
    CcSynch& operator=(const CcSynch&) = delete;

    // Execute `req` under the construction; returns the operation result.
    value_t apply(CombineRequest req) {
        Node* next = my_spare();
        next->next.store(nullptr, std::memory_order_relaxed);
        next->wait.store(true, std::memory_order_relaxed);
        next->completed.store(false, std::memory_order_relaxed);

        Node* cur = counted_swap(*tail_, next);
        cur->req = req;
        cur->next.store(next, std::memory_order_release);
        spare_[thread_index()] = cur;

        // Local spin: our cache line, flipped either by our combiner
        // (completed) or by the previous combiner handing us the role.
        SpinWait waiter;
        while (cur->wait.load(std::memory_order_acquire)) waiter.spin();

        if (cur->completed.load(std::memory_order_acquire)) {
            return cur->req.result;
        }

        // We are the combiner.
        stats::count(stats::Event::kCombinerAcquire);
        guard_.lock();
        Node* node = cur;
        unsigned combined = 0;
        while (true) {
            Node* follower = node->next.load(std::memory_order_acquire);
            if (follower == nullptr || combined >= bound_) break;
            apply_(object_, node->req);
            ++combined;
            node->completed.store(true, std::memory_order_relaxed);
            node->wait.store(false, std::memory_order_release);
            node = follower;
        }
        guard_.unlock();
        stats::count(stats::Event::kCombine, combined);
        // Hand the combiner role to the first waiter we did not serve (or
        // release the dummy if the list drained).
        node->wait.store(false, std::memory_order_release);
        return cur->req.result;
    }

  private:
    struct alignas(kCacheLineSize) Node {
        CombineRequest req{};
        std::atomic<bool> wait{false};
        std::atomic<bool> completed{false};
        std::atomic<Node*> next{nullptr};
    };

    Node* my_spare() {
        auto& slot = spare_[thread_index()];
        if (slot == nullptr) slot = check_alloc(new (std::nothrow) Node);
        return slot;
    }

    static inline NoGuard no_guard_;

    Object& object_;
    ApplyFn apply_;
    const unsigned bound_;
    Guard& guard_;
    CacheAligned<std::atomic<Node*>, kDestructivePairSize> tail_{nullptr};
    Node* spare_[kMaxThreads];
};

template <typename Object, typename ApplyFn>
class HSynch {
  public:
    HSynch(Object& object, ApplyFn apply, unsigned bound, int clusters) {
        const auto n = static_cast<std::size_t>(clusters < 1 ? 1 : clusters);
        per_cluster_.reserve(n);
        for (std::size_t c = 0; c < n; ++c) {
            per_cluster_.emplace_back(
                check_alloc(new (std::nothrow) ClusterSynch(object, apply, bound, *global_lock_)));
        }
    }

    HSynch(const HSynch&) = delete;
    HSynch& operator=(const HSynch&) = delete;

    // A thread announces into its own cluster's CC-Synch.
    value_t apply(CombineRequest req) {
        const auto cluster = static_cast<std::size_t>(topo::current_cluster()) %
                             per_cluster_.size();
        return per_cluster_[cluster]->apply(req);
    }

  private:
    using ClusterSynch = CcSynch<Object, ApplyFn, SpinLock>;

    CacheAligned<SpinLock, kDestructivePairSize> global_lock_;
    std::vector<std::unique_ptr<ClusterSynch>> per_cluster_;
};

// Max operations one CC-Queue or H-Queue combiner applies per pass.
inline constexpr unsigned kCombinerBound = 1024;

using ListApplyFn = void (*)(MsTwoLockList&, CombineRequest&);

// CC-Queue and H-Queue: `Synch` is the only difference between them.
template <typename Synch>
class CombiningQueue {
  public:
    static constexpr bool kHierarchical =
        std::is_same_v<Synch, HSynch<MsTwoLockList, ListApplyFn>>;
    static constexpr const char* kName = kHierarchical ? "h-queue" : "cc-queue";

    explicit CombiningQueue(const QueueOptions& opt = {})
        : clusters_(!kHierarchical      ? 1
                    : opt.clusters > 0 ? opt.clusters
                                       : topo::discover().num_clusters),
          enq_side_(side(&apply_enqueue)),
          deq_side_(side(&apply_dequeue)) {}

    void enqueue(value_t x) {
        CombineRequest req;
        req.is_enqueue = true;
        req.arg = x;
        enq_side_.apply(req);
    }

    std::optional<value_t> dequeue() {
        CombineRequest req;
        req.is_enqueue = false;
        const value_t v = deq_side_.apply(req);
        if (v == kBottom) return std::nullopt;
        return v;
    }

    int clusters() const noexcept { return clusters_; }

  private:
    static void apply_enqueue(MsTwoLockList& list, CombineRequest& req) {
        list.push_tail(req.arg);
        req.result = kBottom;
    }
    static void apply_dequeue(MsTwoLockList& list, CombineRequest& req) {
        const auto v = list.pop_head();
        req.result = v.has_value() ? *v : kBottom;
    }

    // H-Synch also takes the cluster count.  The immovable synch is
    // returned by value: C++17 constructs it in place.
    Synch side(ListApplyFn apply) {
        if constexpr (kHierarchical) return Synch(list_, apply, kCombinerBound, clusters_);
        else return Synch(list_, apply, kCombinerBound);
    }

    int clusters_;  // 1 for CC-Queue: one publication list per end
    MsTwoLockList list_;
    Synch enq_side_;
    Synch deq_side_;
};

using CcQueue = CombiningQueue<CcSynch<MsTwoLockList, ListApplyFn>>;
using HQueue = CombiningQueue<HSynch<MsTwoLockList, ListApplyFn>>;

}  // namespace lcrq
