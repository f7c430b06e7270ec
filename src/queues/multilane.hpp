// Coordination-free multi-lane front-end over any registered lane queue.
//
// The paper's LCRQ scales because F&A beats CAS loops, but every operation
// still funnels through one shared head/tail pair — at extreme producer
// counts that cache line is the global hot spot.  Following the sharded
// relaxation of "No Cords Attached" (arXiv 2511.09410), Multilane<LaneQ>
// composes N independent lanes (each a full LCRQ or LSCQ) and trades total
// FIFO for **per-lane FIFO**:
//
//   * enqueue is coordination-free: a producer writes only the lane its
//     dense thread id maps to (thread_index() % N).  The front-end itself
//     adds ZERO lock-prefixed instructions to the enqueue hot path — the
//     only atomic RMW an enqueue executes is the lane's own ticket F&A.
//     The emptiness bookkeeping (below) is two single-writer plain stores
//     into a presence slot owned by the enqueuing thread; producers on
//     different lanes never touch a common line, and producers on the
//     *same* lane share only the lane queue itself.
//
//   * dequeue balances: each thread keeps a private *steal hint* — the
//     lane that last yielded it an item, initially its home lane — and
//     probes that lane first, falling back to a rotating scan.  Threads
//     that consume what they produce stay on their home lane (the hint
//     never moves); a dedicated consumer's hint converges onto the
//     producers' lanes instead of paying a guaranteed-empty home probe on
//     every operation.  The hint lives in the thread's entry of a
//     per-queue ThreadTable, so the dequeue front-end shares no mutable
//     state between threads either, and no two queues share a hint.
//
// What survives of the FIFO contract: items enqueued *by the same thread*
// are dequeued in order (same thread → same lane → lane FIFO), and no item
// is lost, duplicated, or invented.  What is given up: ordering between
// items of different producers.  verify/lin_check.hpp checks exactly this
// relaxed contract (check_queue_fast_per_lane / check_queue_exact_per_lane).
//
// EMPTY must still be a *sound* answer: "dequeue → EMPTY" has to be
// linearizable, i.e. there must be one instant at which every lane is
// simultaneously empty — a naive scan can miss an item that hops from a
// not-yet-visited lane into an already-visited one.  Each lane therefore
// holds a ThreadTable (arch/thread_id.hpp) of presence slots, one per
// dense thread id that ever enqueued to it, each slot a pair of
// single-writer counters:
//
//     started  — bumped by an enqueuer before it touches the lane queue;
//     finished — bumped after its item is inserted (always, even when the
//                insert unwinds, so a killed enqueuer cannot wedge the
//                certification below).
//
// Only the thread owning the id writes its slot (plain MOV store on x86).
// The table's high-water mark bounds how many slots a scan reads: the
// first enqueue to a lane under a thread id attaches the id's slot, which
// raises the mark and publishes the slot (both seq_cst) before the first
// started-bump, and a scan visits the published slots below the mark.
//
// The emptiness certification is a two-round protocol:
//
//   round 1, per lane i (rotating order): visit each published slot,
//     reading started then finished and recording the slot's address with
//     its started value, then attempt a lane dequeue.  An item ends the
//     scan (it is the result); otherwise the failed dequeue is a
//     linearized empty observation of lane i at some instant t_i, and the
//     lane is *quiescent* iff started == finished in every visited slot.
//   round 2, only if every lane was observed empty and quiescent: issue a
//     seq_cst fence, visit the lanes' slots again in round 1's order, and
//     certify iff the sequence of (slot, started) pairs equals round 1's.
//
// Soundness (per slot): let τ be the instant of the round-2 fence, and
// suppose lane i holds an item X at τ, enqueued by the thread owning slot
// j.  X's insert — a lock-prefixed RMW inside the lane queue — linearized
// in (t_i, τ): after t_i because lane i was observed empty at t_i, before
// τ because X is present at τ.  The insert drains the enqueuer's store
// buffer, so X's started-store σ (program-order before the insert) is
// globally visible before τ, and so is slot j's publication, which
// precedes σ; round 2 therefore visits slot j and reads σ.  Two cases:
//   * σ was not yet visible to round 1's read of slot j — round 2 then
//     reads a larger started value (single-writer counters are monotone)
//     and certification fails;
//   * σ was visible to round 1 — the thread is sequential, so every
//     earlier operation in slot j had already finished (their
//     finished-stores precede σ in j's program order and are visible with
//     it), while X's own finished-store can only follow the insert, i.e.
//     lands after t_i > the slot read.  Round 1 therefore read
//     started == finished + 1 for slot j and quiescence already failed.
// A thread whose first enqueue to lane i races the scan is caught by the
// same comparison: round 2 visits slot j, so if round 1 did not, the two
// sequences differ.  Slots are never removed while the lane lives, so
// round 2 visits every slot round 1 did; equal sequences mean the same
// slots with the same started values, and the cases above apply.
// (The visibility steps lean on x86-TSO — stores become visible in program
// order and lock-prefixed RMWs drain the store buffer — which is the
// portability bar this repo already sets; see arch/primitives.hpp.)
//
// Liveness: a failed certification implies an enqueue started, finished,
// or attached a slot during the scan — system-wide progress — so successful
// operations stay as nonblocking as the lane queue.  The one relaxation:
// the EMPTY answer itself waits out in-flight enqueues (a producer parked
// between its started-bump and its insert keeps started != finished).
// This is the sharded analogue of the CRQ dequeuer's spin-wait for a
// matching enqueuer (§4.1.1) and is documented in ALGORITHM.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "arch/inject.hpp"
#include "arch/thread_id.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

// Lane counts above this are clamped: "one lane per CPU" never needs more,
// and the bound keeps a scan's round-1 record (lanes × visited slots)
// small; it lives in the scanning thread's entry, reused across scans.
inline constexpr std::size_t kMaxLanes = 64;

template <ConcurrentQueue LaneQ>
class Multilane {
  public:
    static constexpr const char* kName = "multilane";

    explicit Multilane(const QueueOptions& opt = {}) {
        std::size_t n = opt.lanes;
        if (n == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            n = hw < 2 ? 2 : hw;  // ≥ 2 so sharding exists even on 1 CPU
        }
        if (n > kMaxLanes) n = kMaxLanes;
        QueueOptions lane_opt = opt;
        lane_opt.lanes = 1;  // a lane must not recurse into more lanes
        lanes_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            lanes_.push_back(std::make_unique<Lane>(lane_opt));
        }
    }

    void enqueue(value_t x) {
        Lane& lane = *lanes_[home_lane()];
        PresenceGuard guard(lane);
        LCRQ_INJECT_POINT(kLaneEnqPending);
        lane.queue.enqueue(x);
    }

    // The whole batch goes to the caller's lane under one presence pair:
    // the per-item amortization of the lane's native bulk path is kept, and
    // certification cost stays two bumps per batch, not per item.
    void enqueue_bulk(std::span<const value_t> items) {
        if (items.empty()) return;
        Lane& lane = *lanes_[home_lane()];
        PresenceGuard guard(lane);
        LCRQ_INJECT_POINT(kLaneEnqPending);
        bulk_enqueue(lane.queue, items);
    }

    std::optional<value_t> dequeue() {
        Scanner& me = scanners_.local();
        const std::size_t start = scan_start(me);
        if (auto v = lanes_[start]->queue.dequeue()) {
            stats::count(start == home_lane() ? stats::Event::kLaneLocalHit
                                              : stats::Event::kLaneSteal);
            return v;
        }
        SpinWait waiter;
        for (;;) {
            std::optional<value_t> item;
            if (scan_round(me, start, item)) return item;
            waiter.spin();
        }
    }

    // Bulk contract (cf. LinkedSegments::dequeue_bulk): 0 means the queue was
    // observed (here: certified) empty.  A short non-zero return means the
    // final scan round observed every lane individually empty — under the
    // relaxed contract that is the strongest claim a partial batch needs,
    // and it keeps a half-full batch from blocking on in-flight enqueues.
    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        Scanner& me = scanners_.local();
        const std::size_t home = home_lane();
        const std::size_t start = scan_start(me);
        const std::size_t n = lanes_.size();
        std::size_t got = 0;
        SpinWait waiter;
        for (;;) {
            std::size_t round_got = 0;
            for (std::size_t k = 0; k < n && got < max; ++k) {
                const std::size_t i = (start + k) % n;
                const std::size_t take =
                    bulk_dequeue(lanes_[i]->queue, out + got, max - got);
                if (take != 0) {
                    stats::count(i == home ? stats::Event::kLaneLocalHit
                                           : stats::Event::kLaneSteal,
                                 take);
                    me.hint = i;
                }
                round_got += take;
                got += take;
            }
            if (got == max) return got;
            if (round_got == 0 && got != 0) return got;
            if (round_got == 0) {
                // Nothing anywhere: certify before answering EMPTY.
                std::optional<value_t> item;
                if (scan_round(me, start, item)) {
                    if (item.has_value()) {
                        out[got++] = *item;
                        continue;
                    }
                    return 0;
                }
                waiter.spin();
            }
        }
    }

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    // The lane the calling thread's enqueues go to.
    std::size_t home_lane() const noexcept {
        return thread_index() % lanes_.size();
    }
    LaneQ& lane(std::size_t i) noexcept { return lanes_[i]->queue; }

    static std::string variant_name() {
        return std::string("multilane<") + LaneQ::kName + ">";
    }

  private:
    // One presence slot per (thread id, lane), in the lane's table.
    // Single-writer: only the thread owning the id stores here, so both
    // bumps are plain MOVs on x86; scans read them with acquire loads
    // (also plain MOVs).  A slot has its own cache line, so producers
    // never share a line through their slots.
    struct alignas(kCacheLineSize) PresenceSlot {
        std::atomic<std::uint64_t> started{0};
        std::atomic<std::uint64_t> finished{0};
    };

    struct alignas(kDestructivePairSize) Lane {
        LaneQ queue;
        // The slots of every thread id that ever enqueued here; a scan
        // reads the slots below the table's high-water mark.
        ThreadTable<PresenceSlot> presence;

        explicit Lane(const QueueOptions& opt) : queue(opt) {}
    };

    // started on construction, finished on destruction — also when the
    // lane insert unwinds (kill injection), so a dead enqueuer leaves the
    // counters balanced and EMPTY certification stays live.  local()
    // attaches the caller's slot on its id's first enqueue to the lane,
    // publishing it before the started-bump.  The relaxed self-reads are
    // sound because slots are single-writer; id recycling keeps that true
    // (ThreadIdPool hands an id to one live thread at a time, and its
    // release/acquire pair orders the handoff).
    struct PresenceGuard {
        explicit PresenceGuard(Lane& l) noexcept : slot(l.presence.local()) {
            slot.started.store(
                slot.started.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
        }
        ~PresenceGuard() {
            slot.finished.store(
                slot.finished.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
        }
        PresenceSlot& slot;
    };

    // One presence slot as round 1 saw it.
    struct Seen {
        const PresenceSlot* slot;
        std::uint64_t started;
        bool operator==(const Seen&) const = default;
    };

    // A thread's dequeue-side state in this queue: its steal hint — the
    // lane of its last successful dequeue, or kMaxLanes (none yet, so the
    // home lane) — and round 1's record, kept to reuse its buffer.  Being
    // per thread and on its own cache line, it adds no cross-thread
    // traffic to the dequeue path.
    struct alignas(kCacheLineSize) Scanner {
        std::size_t hint = kMaxLanes;
        std::vector<Seen> seen;
    };

    std::size_t scan_start(const Scanner& me) const noexcept {
        return me.hint < lanes_.size() ? me.hint : home_lane();
    }

    // One full rotating scan + certification attempt.  Returns true when
    // the scan produced an answer: an item (left in `item`) or a certified
    // EMPTY (`item` empty).  Returns false when certification failed and
    // the caller should retry.
    bool scan_round(Scanner& me, std::size_t start, std::optional<value_t>& item) {
        const std::size_t n = lanes_.size();
        const std::size_t home = home_lane();
        me.seen.clear();
        bool quiescent = true;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (start + k) % n;
            Lane& lane = *lanes_[i];
            lane.presence.for_each([&](const PresenceSlot& p) {
                // started before finished (the soundness argument needs a
                // finish counted only if its start is).
                const std::uint64_t s = p.started.load(std::memory_order_acquire);
                const std::uint64_t f = p.finished.load(std::memory_order_acquire);
                me.seen.push_back({&p, s});
                if (s != f) quiescent = false;
            });
            LCRQ_INJECT_POINT(kLaneScan);
            if (auto v = lane.queue.dequeue()) {
                stats::count(i == home ? stats::Event::kLaneLocalHit
                                       : stats::Event::kLaneSteal);
                me.hint = i;
                item = v;
                return true;
            }
        }
        stats::count(stats::Event::kLaneEmptyScan);
        if (!quiescent) return false;
        LCRQ_INJECT_POINT(kLaneCertify);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::size_t at = 0;
        bool same = true;
        for (std::size_t k = 0; k < n && same; ++k) {
            lanes_[(start + k) % n]->presence.for_each([&](const PresenceSlot& p) {
                same = same && at < me.seen.size() &&
                       me.seen[at] == Seen{&p, p.started.load(std::memory_order_acquire)};
                ++at;
            });
        }
        if (!same || at != me.seen.size()) return false;
        item.reset();
        return true;
    }

    // LaneQ is neither movable nor small (per-thread hazard state inside),
    // so lanes live behind unique_ptr.
    std::vector<std::unique_ptr<Lane>> lanes_;
    ThreadTable<Scanner> scanners_;
};

using MultilaneLcrq = Multilane<LcrqQueue>;
using MultilaneLscq = Multilane<LscqQueue>;

}  // namespace lcrq
