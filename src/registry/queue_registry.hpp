// Type-erased queue factory.
//
// The bench harness, property tests, and examples sweep over "every queue
// by name"; this registry maps names to heap-constructed instances behind
// a uniform virtual interface.  The virtual dispatch adds the same ~1 ns
// to every algorithm, preserving relative comparisons.
//
// The adapter also counts operation-level events (enqueue / dequeue /
// dequeue-empty) so per-operation statistics (Tables 2/3) divide by the
// right denominator no matter which algorithm ran.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/counters.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

class AnyQueue {
  public:
    virtual ~AnyQueue() = default;
    virtual void enqueue(value_t x) = 0;
    virtual std::optional<value_t> dequeue() = 0;

    // Batch operations with the BulkConcurrentQueue contract: every item of
    // `items` is appended in order; dequeue_bulk returns fewer than `max`
    // only on an empty observation.  The defaults loop the single-item
    // virtuals; the registry adapter overrides them with the queue's native
    // batch path when it has one.
    virtual void enqueue_bulk(std::span<const value_t> items) {
        for (value_t v : items) enqueue(v);
    }
    virtual std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        std::size_t n = 0;
        while (n < max) {
            const auto v = dequeue();
            if (!v.has_value()) break;
            out[n++] = *v;
        }
        return n;
    }

    // Read-only emptiness hint for waiters: true only when the queue looks
    // empty without a single shared write.  A hint, not an answer — a true
    // can be stale on return, so a waiter still makes a real dequeue before
    // it sleeps.  The default, false, means "don't know, poll for real";
    // the registry adapter forwards the queue's own peek when it has one.
    virtual bool looks_empty() { return false; }

    virtual const std::string& name() const noexcept = 0;
};

// Line-up membership bits for QueueInfo::paper_sets: the paper_*_set()
// line-ups are derived from these tags instead of repeating name literals
// that silently drift from the catalog.
inline constexpr unsigned kSetSingleProcessor = 1u << 0;  // fig 6
inline constexpr unsigned kSetMultiProcessor = 1u << 1;   // fig 7

struct QueueInfo {
    std::string name;
    std::string description;
    bool nonblocking;
    bool hierarchical;  // benefits from >1 cluster
    bool bounded;
    // Frees memory only at destruction (research baselines that assume a
    // GC); excluded from unbounded-duration benchmarks.
    bool deferred_reclamation = false;
    // FIFO contract: false = total order (the sequential queue spec);
    // true = per-producer order only (the multilane front-ends).  History
    // checkers must use the per-lane mode (verify/lin_check.hpp) when set.
    bool per_lane_fifo = false;
    // kSet* membership bits; 0 = in no paper line-up.
    unsigned paper_sets = 0;
};

// Catalog of every registered queue, in canonical report order.
const std::vector<QueueInfo>& queue_catalog();

// Catalog entry by name, honoring the "-ml<N>" lane-count knob (the knob
// resolves to its catalog base entry); nullptr for unknown names.
const QueueInfo* find_queue_info(const std::string& name);

// The paper's Figure 6/7 line-ups (catalog entries tagged with the
// matching kSet* bit, in catalog order).
std::vector<std::string> paper_single_processor_set();  // fig 6
std::vector<std::string> paper_multi_processor_set();   // fig 7

// Construct by name; returns nullptr for unknown names.  Catalog "-ml"
// entries additionally accept a trailing lane count ("lcrq-ml8" = lcrq-ml
// with QueueOptions::lanes = 8).
std::unique_ptr<AnyQueue> make_queue(const std::string& name,
                                     const QueueOptions& opt = {});

}  // namespace lcrq
