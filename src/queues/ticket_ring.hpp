// The ticket core every ring backend shares (paper §4.1, Figure 3).
//
// An operation on a CRQ, SCQ or wCQ ring takes a position with one F&A on
// the ring's head or tail — the only contended RMW in the common case —
// and then settles the ring cell that the ticket names.  SCQ (DISC'19) and
// wCQ (SPAA'22) keep that discipline and change only how a cell is settled,
// so TicketRing writes the claiming once: head and tail, with tail's MSB as
// the CLOSED bit, close and the index accessors, and the four claim loops —
// single enqueue and dequeue, and the batch range walks that claim up to
// `capacity` tickets with one F&A and hand unspent dequeue tickets back.
//
// The loops are member templates over the F&A policy and the calling ring,
// which they call back by name (no virtual dispatch, no dependent base):
//   put_at(ring, t, x)          settle enqueue ticket t: true once x is in
//   take_at(ring, h, out)       settle dequeue ticket h: true with its item
//   failed_round(t, rounds, x)  enqueue ticket t burned: an answer ends the
//                               operation (CRQ's tantrum, wCQ's slow path),
//                               nullopt claims the next ticket
//   failed_round(rounds, x)     the same for a dequeue round: true answers
//                               the index left in x, false answers EMPTY
//   empty_before_claim()        EMPTY without claiming (SCQ's threshold)
//   empty_after_burn()          the ring's own EMPTY rule for a burned
//                               dequeue ticket, besides "tail has not
//                               passed it"; it sees every burned ticket
//   repair_tail(traw, stop)     after an EMPTY that read tail traw at or
//                               below stop, pull tail up to head (CRQ's
//                               fixState, SCQ's catchup)
// TicketRing's own failed-round and EMPTY hooks are the plain ring's: claim
// again at once, and no EMPTY rule but the tail's.  Each ring also names the
// injection points its claims visit (kTicketPoints), so a point keeps its
// meaning whichever ring passes it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "arch/faa_policy.hpp"
#include "arch/inject.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

namespace detail {

// tail's MSB is the CLOSED bit; the rest of head and tail is the index.
inline constexpr std::uint64_t kMsb = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kIdxMask = kMsb - 1;

}  // namespace detail

// The point a ring's claims pass right after their F&A, per loop.
struct TicketPoints {
    inject::Point enqueue;
    inject::Point dequeue;
    inject::Point bulk_enqueue;
    inject::Point bulk_dequeue;
};

class TicketRing {
  public:
    TicketRing(const TicketRing&) = delete;
    TicketRing& operator=(const TicketRing&) = delete;

    // Close to further enqueues (sets tail's MSB; idempotent).
    void close() LCRQ_INJECT_NOEXCEPT {
        counted_test_and_set_bit(*tail_, 63);
        LCRQ_INJECT_POINT(kRingCloseCas);
        stats::count(stats::Event::kCrqClose);
    }

    bool closed() const noexcept {
        return (tail_->load(std::memory_order_seq_cst) & detail::kMsb) != 0;
    }

    std::uint64_t head_index() const noexcept {
        return head_->load(std::memory_order_seq_cst);
    }
    std::uint64_t tail_index() const noexcept {
        return tail_->load(std::memory_order_seq_cst) & detail::kIdxMask;
    }

    // Instantaneous item-count estimate.  Under concurrency it is a
    // snapshot of racing indices (never negative, may over-count by
    // in-flight operations); clamped to the capacity because failed
    // enqueue rounds bump tail without storing (a closed full CRQ reads
    // exactly R).  For monitoring, not control flow — a ring this estimate
    // calls empty may deliver an item.
    std::uint64_t approx_size() const noexcept {
        const std::uint64_t t = tail_index();
        const std::uint64_t h = head_index();
        const std::uint64_t n = t > h ? t - h : 0;
        return n < capacity_ ? n : capacity_;
    }

    // Test peers: simulate a thread that performed its F&A, with the ring's
    // policy, and then died (was descheduled forever) before touching the
    // ring — the adversarial schedule the nonblocking proofs are about.  A
    // stolen enqueue ticket leaves a hole dequeuers must advance past; a
    // stolen dequeue ticket strands exactly that one item.  Tests only.
    std::uint64_t debug_take_enqueue_ticket() {
        return take_ticket_(*tail_, 1) & detail::kIdxMask;
    }
    std::uint64_t debug_take_dequeue_ticket() { return take_ticket_(*head_, 1); }

  protected:
    // `capacity` is the most items the ring holds, and the most tickets one
    // batch round claims.  The Faa tag names the ring's F&A policy for the
    // test peers; the loops take it as a template argument.
    template <class Faa>
    TicketRing(std::uint64_t capacity, Faa)
        : capacity_(capacity), take_ticket_(&Faa::fetch_add) {}
    ~TicketRing() = default;

    // --- the claim loops ---------------------------------------------------
    //
    // The single loops are always inlined, so each ring's operation holds
    // its loop.  Left to GCC, the SCQ-family loops were inlined into the
    // list layer instead, which cost single-thread LSCQ and LwCQ pairs
    // 5-11% (EXPERIMENTS.md, "One SCQ-family ring fast path").

    // Enqueue x: one tail ticket per round, until a cell takes x, the ring
    // is closed, or the ring's failed-round hook answers.
    template <class Faa, class Ring>
    [[gnu::always_inline]] EnqueueResult claim_enqueue(Ring& ring, std::uint64_t x) {
        unsigned rounds = 0;
        for (;;) {
            const std::uint64_t t = Faa::fetch_add(*tail_, 1);
            if ((t & detail::kMsb) != 0) return EnqueueResult::kClosed;
            LCRQ_INJECT_AT(Ring::kTicketPoints.enqueue);
            if (ring.put_at(ring, t, x)) return EnqueueResult::kOk;
            if (const auto answer = ring.failed_round(t, rounds, x)) return *answer;
            stats::count(stats::Event::kRingRetry);
        }
    }

    // Dequeue: one head ticket per round, until a cell yields an item or
    // the ring answers EMPTY.
    template <class Faa, class Ring>
    [[gnu::always_inline]] std::optional<std::uint64_t> claim_dequeue(Ring& ring) {
        if (ring.empty_before_claim()) return std::nullopt;
        unsigned rounds = 0;
        for (;;) {
            const std::uint64_t h = Faa::fetch_add(*head_, 1);
            LCRQ_INJECT_AT(Ring::kTicketPoints.dequeue);
            std::uint64_t x = 0;
            if (ring.take_at(ring, h, x)) return x;
            // Ticket h burned: its cell will never hold an item for it.  If
            // tail has not passed h the ring is empty (Figure 3b; EMPTY
            // linearizes at this load): repair tail and answer EMPTY.  The
            // ring's own rule sees every burned ticket and may say EMPTY too.
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            const bool drained = (traw & detail::kIdxMask) <= h + 1;
            if (drained) ring.repair_tail(traw, h + 1);
            if (ring.empty_after_burn() || drained) return std::nullopt;
            if (const auto took = ring.failed_round(rounds, x)) {
                if (*took) return x;
                return std::nullopt;
            }
            stats::count(stats::Event::kRingRetry);
        }
    }

    // Batched enqueue: claim a range of consecutive tickets with ONE F&A on
    // tail and settle the claimed cells in order.  Returns how many items
    // from the front of `items` were stored — fewer only once the ring is
    // closed.  A ticket whose cell was unusable is wasted (a hole dequeuers
    // advance past), and its item moves to the next round, which one F&A
    // makes one round of the single op's failed-round policy, judged at
    // the round's last ticket.
    template <class Faa, class Ring>
    BulkPut claim_enqueue_bulk(Ring& ring, std::span<const std::uint64_t> items) {
        std::size_t done = 0;
        unsigned rounds = 0;
        while (done < items.size()) {
            // At most capacity tickets per round: a wasted ticket burns a
            // ring index, so overclaiming only widens the hole.
            const std::uint64_t want =
                std::min<std::uint64_t>(items.size() - done, capacity_);
            const std::uint64_t traw = Faa::fetch_add(*tail_, want);
            stats::count(stats::Event::kBulkFaa);
            stats::count(stats::Event::kBulkTickets, want);
            if ((traw & detail::kMsb) != 0) return {done, EnqueueResult::kClosed};
            LCRQ_INJECT_AT(Ring::kTicketPoints.bulk_enqueue);

            std::uint64_t wasted = 0;
            for (std::uint64_t t = traw; t != traw + want; ++t) {
                if (ring.put_at(ring, t, items[done])) {
                    ++done;
                } else {
                    ++wasted;
                }
            }
            if (wasted == 0) continue;  // every claimed ticket landed
            stats::count(stats::Event::kBulkWasted, wasted);
            if (const auto answer = ring.failed_round(traw + want - 1, rounds, items[done])) {
                return {done, *answer};
            }
            stats::count(stats::Event::kRingRetry);
        }
        return {done, EnqueueResult::kOk};
    }

    // Batched dequeue: claim a ticket range with ONE F&A on head, then settle
    // the claimed cells.  Writes up to `max` items into `out` and returns the
    // count; fewer than `max` are returned ONLY after an EMPTY observation,
    // so 0 means EMPTY — the single op's contract, k at a time.  A batch
    // that ends on EMPTY repairs tail as the single op does, whether or not
    // it took items.
    //
    // A range that goes EMPTY mid-walk first tries to hand its unspent
    // tickets back with a CAS of head from the claim's end to the first
    // unspent ticket (legal exactly when no later ticket was issued, which
    // the CAS's expected value proves); if another dequeuer already claimed
    // past it the CAS fails and the rest are spent normally, so no ticket
    // is ever leaked to strand an item.
    template <class Faa, class Ring>
    std::size_t claim_dequeue_bulk(Ring& ring, std::uint64_t* out, std::size_t max) {
        std::size_t n = 0;
        while (n < max) {
            if (ring.empty_before_claim()) return n;
            const std::uint64_t want = std::min<std::uint64_t>(max - n, capacity_);
            const std::uint64_t hraw = Faa::fetch_add(*head_, want);
            stats::count(stats::Event::kBulkFaa);
            stats::count(stats::Event::kBulkTickets, want);
            LCRQ_INJECT_AT(Ring::kTicketPoints.bulk_dequeue);
            const std::uint64_t end = hraw + want;

            std::uint64_t wasted = 0;
            bool empty = false;
            std::uint64_t traw = 0;   // tail as read by the EMPTY observation
            std::uint64_t stop = end; // one past the ticket that made it
            for (std::uint64_t h = hraw; h != end; ++h) {
                std::uint64_t x = 0;
                if (ring.take_at(ring, h, x)) {
                    out[n++] = x;
                    continue;
                }
                // Ticket h burned: EMPTY as in the single loop, but tail is
                // repaired once, after any handback.
                ++wasted;
                const std::uint64_t t = tail_->load(std::memory_order_seq_cst);
                if (!ring.empty_after_burn() && (t & detail::kIdxMask) > h + 1) {
                    continue;
                }
                empty = true;
                traw = t;
                stop = h + 1;
                if (stop == end) break;  // nothing left to hand back
                // Handing tickets back must never drop head below a frozen
                // (closed) tail: EMPTY was just observed, and re-exposing
                // pre-close tickets would let a stalled enqueuer publish
                // into a segment the list layer is about to retire.
                const std::uint64_t frozen = tail_->load(std::memory_order_seq_cst);
                if ((frozen & detail::kMsb) != 0 && (frozen & detail::kIdxMask) > stop) {
                    continue;  // spend the rest of the range instead
                }
                LCRQ_INJECT_POINT(kBulkTicketReturn);
                // Tickets stop..end-1 were never observed by anyone and are
                // re-issued by later F&As: not wasted, not leaked.
                if (counted_cas(*head_, end, stop)) break;
                // A later dequeuer holds tickets past `end`; spend ours.
            }
            stats::count(stats::Event::kBulkWasted, wasted);
            if (wasted == 0) continue;  // full round landed; claim more
            if (!empty) {
                // Tickets burned by races, not emptiness: re-check EMPTY at
                // the range's end (the last burned ticket is below end, so
                // tail ≤ end is exactly its "tail ≤ h + 1").
                traw = tail_->load(std::memory_order_seq_cst);
                empty = (traw & detail::kIdxMask) <= end;
            }
            if (empty) {
                // An EMPTY by the ring's own rule saw tail ahead: no repair.
                if ((traw & detail::kIdxMask) <= stop) ring.repair_tail(traw, stop);
                return n;
            }
            stats::count(stats::Event::kRingRetry);
        }
        return n;
    }

    // --- the plain ring's hooks ---------------------------------------------

    bool empty_before_claim() const noexcept { return false; }
    bool empty_after_burn() noexcept { return false; }
    std::optional<EnqueueResult> failed_round(std::uint64_t, unsigned&,
                                              std::uint64_t) noexcept {
        return std::nullopt;
    }
    std::optional<bool> failed_round(unsigned&, std::uint64_t&) noexcept {
        return std::nullopt;
    }

    // head and tail first, then the capacity: a derived ring's own fields
    // follow on the capacity's line (the base's tail padding).
    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> head_{0};
    CacheAligned<std::atomic<std::uint64_t>, kDestructivePairSize> tail_{0};
    const std::uint64_t capacity_;

  private:
    std::uint64_t (*take_ticket_)(std::atomic<std::uint64_t>&, std::uint64_t) noexcept;
};

}  // namespace lcrq
