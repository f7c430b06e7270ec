// Michael–Scott nonblocking queue (PODC 1996) — the classic CAS-based
// linked-list queue the paper benchmarks as "MS queue".
//
// One node per item plus a dummy; enqueue CASes the tail node's next
// pointer then swings tail, dequeue CASes head forward.  Both head and
// tail are CAS hot spots, which is exactly the retry behaviour (Figure 1)
// LCRQ is built to avoid.  Reclamation uses hazard pointers, as in the
// original paper's follow-up and the framework the authors benchmarked.
//
// A truncated randomized backoff after failed CASes keeps the meltdown
// bounded (the evaluated implementations do the same); MsQueue<false>
// disables it, which the ablation bench uses to show the raw retry storm.
#pragma once

#include <atomic>
#include <optional>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "hazard/hazard_pointers.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

template <bool UseBackoff = true>
class MsQueue {
  public:
    static constexpr const char* kName = UseBackoff ? "ms" : "ms-nobackoff";

    explicit MsQueue(const QueueOptions& = {}) {
        Node* dummy = check_alloc(new (std::nothrow) Node{});
        head_->store(dummy, std::memory_order_relaxed);
        tail_->store(dummy, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    ~MsQueue() {
        Node* n = head_->load(std::memory_order_relaxed);
        while (n != nullptr) {
            Node* next = n->next.load(std::memory_order_relaxed);
            delete n;
            n = next;
        }
    }

    MsQueue(const MsQueue&) = delete;
    MsQueue& operator=(const MsQueue&) = delete;

    void enqueue(value_t x) {
        auto* node = check_alloc(new (std::nothrow) Node{});
        node->value = x;
        ExponentialBackoff backoff;
        for (;;) {
            Node* tail = domain_.protect(*tail_, 0);
            Node* next = tail->next.load(std::memory_order_seq_cst);
            if (tail != tail_->load(std::memory_order_seq_cst)) continue;
            if (next != nullptr) {
                // Tail lagging: help swing it.
                counted_cas_ptr(*tail_, tail, next);
                continue;
            }
            Node* expected = nullptr;
            stats::count(stats::Event::kCas);
            if (tail->next.compare_exchange_strong(expected, node,
                                                   std::memory_order_seq_cst)) {
                counted_cas_ptr(*tail_, tail, node);
                domain_.clear(0);
                return;
            }
            stats::count(stats::Event::kCasFailure);
            if constexpr (UseBackoff) backoff.backoff();
        }
    }

    std::optional<value_t> dequeue() {
        ExponentialBackoff backoff;
        for (;;) {
            Node* head = domain_.protect(*head_, 0);
            Node* tail = tail_->load(std::memory_order_seq_cst);
            // head is protected, so &head->next stays valid inside protect.
            Node* next = domain_.protect(head->next, 1);
            if (head != head_->load(std::memory_order_seq_cst)) continue;
            if (next == nullptr) {
                domain_.clear_all();
                return std::nullopt;  // empty: head == dummy with no next
            }
            if (head == tail) {
                // Tail lagging behind a half-finished enqueue: help.
                counted_cas_ptr(*tail_, tail, next);
                continue;
            }
            const value_t v = next->value;
            if (counted_cas_ptr(*head_, head, next)) {
                domain_.clear_all();
                domain_.retire(head);
                return v;
            }
            if constexpr (UseBackoff) backoff.backoff();
        }
    }

    HazardDomain& hazard_domain() noexcept { return domain_; }

  private:
    struct Node {
        std::atomic<Node*> next{nullptr};
        value_t value{kBottom};
    };

    HazardDomain domain_;
    CacheAligned<std::atomic<Node*>, kDestructivePairSize> head_{nullptr};
    CacheAligned<std::atomic<Node*>, kDestructivePairSize> tail_{nullptr};
};

using MsQueueDefault = MsQueue<true>;

}  // namespace lcrq
