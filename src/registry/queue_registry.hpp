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
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/counters.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

// The registry's one interface, implemented by its per-queue adapter.
// try_enqueue answers kFull when a bounded ring (scq, wcq, bounded-mpmc)
// has no free slot, kOk otherwise; capacity() is that ring's size, 0 for
// unbounded queues.  The bulk operations follow the BulkConcurrentQueue
// contract, natively where the queue has a batch path.  looks_empty() is
// the waiters' peek: true only when the queue looks empty without a
// single shared write — a hint that can be stale on return — and always
// false ("don't know, poll for real") for queues without one.
class AnyQueue {
  public:
    virtual ~AnyQueue() = default;
    virtual void enqueue(value_t x) = 0;
    virtual EnqueueResult try_enqueue(value_t x) = 0;
    virtual std::optional<value_t> dequeue() = 0;
    virtual void enqueue_bulk(std::span<const value_t> items) = 0;
    virtual std::size_t dequeue_bulk(value_t* out, std::size_t max) = 0;
    virtual bool looks_empty() = 0;
    virtual std::uint64_t capacity() const noexcept = 0;
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

// Catalog entry by name, honoring the knobs (a knob spelling resolves to
// its catalog base entry: "lcrq-ml8" to lcrq-ml, "lscq-h250" to lscq-h,
// "lcrq-huge" to lcrq); nullptr for unknown names.
const QueueInfo* find_queue_info(const std::string& name);

// The paper's Figure 6/7 line-ups (catalog entries tagged with the
// matching kSet* bit, in catalog order).
std::vector<std::string> paper_single_processor_set();  // fig 6
std::vector<std::string> paper_multi_processor_set();   // fig 7

// Construct by name; returns nullptr for unknown names.  Three knobs
// override a QueueOptions field: a trailing lane count on the "-ml"
// entries ("lcrq-ml8" = lcrq-ml with lanes = 8), a handoff timeout in µs
// on the "-h" entries ("lcrq-h250" = cluster_timeout_ns 250'000), and a
// final "-huge" on any name (huge_segments = true; "lcrq-ml8-huge").
std::unique_ptr<AnyQueue> make_queue(const std::string& name,
                                     const QueueOptions& opt = {});

}  // namespace lcrq
