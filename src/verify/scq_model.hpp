// A small-step executable model of the SCQ ring protocol (verify
// substrate; companion of crq_model.hpp).
//
// Mirrors `queues/scq.hpp`'s ScqRing — the fast path ScqTicketCore writes
// once for ScqRing and WcqRing — with *every shared-memory access as
// one atomic step*, so the explorer (explore.hpp) can enumerate the
// interleavings the cycle/safe/threshold protocol exists for: an enqueuer
// stalled between its F&A and its entry CAS while dequeuers lap the ring,
// the threshold draining to a correct EMPTY under a racing slow enqueuer,
// and the catchup repair of head > tail.
//
// The fast path is written once, in ScqFastPath, for both rings of the
// family: ScqModelOp is that path with SCQ's policy, and the wCQ model
// (wcq_model.hpp) is the same path with three hooks replaced — what a
// load does when it finds a note, how pc 13 consumes, and what a failed
// round does — plus its helping slow path, the way WcqRing is
// ScqTicketCore's fast path with the same three hooks, plus helping.
//
// The model is the *value-carrying ring*: entries hold script values
// directly (⊥ = kBottom), where the production ring holds slot indices and
// pairs two rings over a data array.  The pairing adds no new transition
// kind — aq and fq are both this protocol — so the ring model is the part
// worth enumerating, and the model-vs-real differential runs against a raw
// ScqRing holding small integers.
//
// Fidelity notes (kept in sync with scq.hpp by the differential test):
//   * entries are modeled unpacked (cycle, safe, idx) — the packing is
//     bijective, so one modeled CAS is one real CAS.
//   * the cache remap is modeled as identity; it permutes slots without
//     changing the protocol (and is identity for tiny real rings anyway).
//   * known gap: there is no closed bit and no close path, so the
//     list-layer rule that a threshold-exhaustion EMPTY is authoritative
//     only on an open ring (docs/ALGORITHM.md §5, found by injection
//     sweeps) has no model yet.  It is open in ROADMAP.md under "One
//     model per code layer".
//
// Contract caveat for script authors: the ring is correct only while its
// *occupancy* — live items plus in-flight enqueues — stays ≤ capacity,
// the invariant the fq/aq pairing enforces in the full Scq (fq can hand
// out at most n indices).  Overfilled scripts make enqueuers burn tickets
// forever (pruned schedules) and can legitimately drive the 3n-1
// threshold to a false EMPTY — the explorer will report those as real
// linearizability violations, because they are: that is SCQ outside its
// operating envelope, not a model bug.  The simplest safe script shape is
// total enqueues ≤ capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "queues/queue_common.hpp"
#include "verify/crq_model.hpp"  // Kind/Status vocabulary shared by all op models
#include "verify/history.hpp"    // kEmpty

namespace lcrq::verify {

// Shared SCQ ring state: capacity n, ring of N = 2n entries, head/tail
// starting one full lap in (cycle 1) as in ScqRing, threshold -1 (empty).
struct ScqModelState {
    static constexpr std::uint32_t kNoRec = ~std::uint32_t{0};

    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::int64_t threshold = -1;
    struct Cell {
        std::uint64_t cycle;
        bool safe;
        value_t idx;  // stored value, or kBottom (⊥); a note's covered value
        // wCQ's slow-path reservation (wcq_model.hpp); SCQ never sets it.
        bool note = false;
        bool note_deq = false;       // reservation kind
        std::uint32_t rec = kNoRec;  // owning request record
        friend bool operator==(const Cell&, const Cell&) = default;
    };
    std::vector<Cell> ring;

    // Coverage counters (not protocol state); cf. CrqModelState.
    std::uint32_t unsafe_transitions = 0;
    std::uint32_t empty_transitions = 0;
    std::uint32_t enq_rescues = 0;  // enqueue into an unsafe entry via head<=t
    std::uint32_t catchups = 0;     // tail pulled forward past burned tickets
    std::uint32_t threshold_empties = 0;  // EMPTY via threshold exhaustion

    explicit ScqModelState(std::uint64_t capacity = 2) {
        ring.resize(capacity * 2);
        for (auto& c : ring) c = {0, true, kBottom};
        head = tail = ring.size();
    }

    std::uint64_t N() const noexcept { return ring.size(); }
    std::uint64_t capacity() const noexcept { return ring.size() / 2; }
    std::int64_t threshold_full() const noexcept {
        return static_cast<std::int64_t>(3 * capacity() - 1);
    }
    std::uint64_t cycle_of_ticket(std::uint64_t t) const noexcept {
        return t / N();
    }
};

// The SCQ-family fast path as a resumable step machine; shares the
// Kind/Status vocabulary of CrqModelOp so the explorer's World drives any
// family.  Derived supplies the hooks below by name (CRTP, no virtual
// dispatch); the defaults here are SCQ's.
template <class Derived>
class ScqFastPath {
  public:
    using Kind = CrqModelOp::Kind;
    using Status = CrqModelOp::Status;

    Status step(ScqModelState& s) { return pc_ < 10 ? step_enq(s) : step_deq(s); }

    bool done() const noexcept { return done_; }
    // Enqueue: arg (the ring model never closes).  Dequeue: value or kEmpty.
    value_t result() const noexcept { return result_; }
    Kind kind() const noexcept { return kind_; }
    value_t arg() const noexcept { return arg_; }

  protected:
    using Cell = ScqModelState::Cell;

    ScqFastPath(Kind kind, value_t arg, unsigned pc) : kind_(kind), arg_(arg), pc_(pc) {}

    Status finish(value_t r) {
        done_ = true;
        result_ = r;
        return Status::kDone;
    }

    Cell& cell(ScqModelState& s, std::uint64_t t) const { return s.ring[t % s.N()]; }

    // --- hooks ------------------------------------------------------------
    // on_note: the entry load at pc 1 or 12 found a reservation.  SCQ
    // places none, so only the wCQ override is ever reached.
    Status on_note(ScqModelState&) { return Status::kRunning; }

    // consume (pc 13): fetch-or stamps idx to ⊥ on the *current* entry
    // (cycle and safe bits untouched) and returns the idx read at pc 12 —
    // concurrent transitions can only have flipped safe.
    Status consume(ScqModelState& s) {
        cell(s, t_).idx = kBottom;
        return finish(cell_.idx);
    }

    // failed_round: the ticket was unusable; retry at pc 0 (enqueue F&A)
    // or pc 11 (dequeue F&A).
    void failed_round(unsigned retry_pc) { pc_ = retry_pc; }

    Kind kind_;
    value_t arg_;
    unsigned pc_;
    std::uint64_t t_ = 0;      // ticket (enqueue t / dequeue h)
    Cell cell_{};              // entry snapshot for CAS expectations
    std::uint64_t tsnap_ = 0;  // tail snapshot (catchup)
    std::uint64_t cand_ = 0;   // catchup target
    bool done_ = false;
    value_t result_ = 0;

  private:
    Derived& self() { return static_cast<Derived&>(*this); }

    // --- enqueue: mirrors TicketRing::claim_enqueue / ScqTicketCore::put_at -
    //  pc 0: F&A(tail) -> t
    //  pc 1: load entry; branch on (cycle, idx, safe)
    //  pc 2: read head (the "unsafe, head <= t" rescue check)
    //  pc 3: CAS entry -> (cycle(t), safe=1, arg)
    //  pc 4: read threshold
    //  pc 5: store threshold = 3n-1
    Status step_enq(ScqModelState& s) {
        switch (pc_) {
            case 0:
                t_ = s.tail;
                s.tail += 1;
                pc_ = 1;
                return Status::kRunning;
            case 1:
                cell_ = cell(s, t_);
                if (cell_.note) return self().on_note(s);
                if (cell_.cycle >= s.cycle_of_ticket(t_) || cell_.idx != kBottom) {
                    self().failed_round(0);  // entry unusable: new ticket
                } else {
                    pc_ = cell_.safe ? 3 : 2;
                }
                return Status::kRunning;
            case 2:
                if (s.head <= t_) {
                    ++s.enq_rescues;
                    pc_ = 3;
                } else {
                    self().failed_round(0);
                }
                return Status::kRunning;
            case 3: {
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), true, arg_};
                    pc_ = 4;
                } else {
                    pc_ = 1;  // lost the CAS: re-read and re-decide
                }
                return Status::kRunning;
            }
            case 4:
                if (s.threshold != s.threshold_full()) {
                    pc_ = 5;
                    return Status::kRunning;
                }
                return finish(arg_);
            case 5:
                s.threshold = s.threshold_full();
                return finish(arg_);
            default: return finish(arg_);
        }
    }

    // --- dequeue: mirrors TicketRing::claim_dequeue / ScqTicketCore::take_at
    //     and its empty_before_claim / empty_after_burn / catchup
    //  pc 10: read threshold (EMPTY fast path)
    //  pc 11: F&A(head) -> h
    //  pc 12: load entry; branch on cycle vs cycle(h)
    //  pc 13: consume (idx -> ⊥)
    //  pc 14: CAS unsafe transition (clear safe)
    //  pc 15: CAS empty transition (advance cycle to cycle(h))
    //  pc 16: read tail (EMPTY check)
    //  catchup: pc 17 CAS tail, pc 18 read head, pc 19 read tail
    //  pc 20: threshold -= 1, EMPTY          (post-catchup)
    //  pc 21: threshold -= 1, EMPTY iff ≤ 0  (threshold exhaustion)
    Status step_deq(ScqModelState& s) {
        switch (pc_) {
            case 10:
                if (s.threshold < 0) return finish(kEmpty);
                pc_ = 11;
                return Status::kRunning;
            case 11:
                t_ = s.head;  // t_ doubles as h for dequeues
                s.head += 1;
                pc_ = 12;
                return Status::kRunning;
            case 12: {
                cell_ = cell(s, t_);
                if (cell_.note) return self().on_note(s);
                const std::uint64_t hc = s.cycle_of_ticket(t_);
                if (cell_.cycle == hc) {
                    // ⊥ at our own cycle was consumed by a slow-path helper
                    // (wCQ); on an SCQ ring only h itself writes it.
                    pc_ = cell_.idx == kBottom ? 16 : 13;
                } else if (cell_.cycle > hc) {
                    pc_ = 16;  // overtaken: ticket spent
                } else if (cell_.idx != kBottom) {
                    pc_ = cell_.safe ? 14 : 16;  // already-unsafe entries are spent
                } else {
                    pc_ = 15;
                }
                return Status::kRunning;
            }
            case 13: return self().consume(s);
            case 14: {
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c.safe = false;
                    ++s.unsafe_transitions;
                    pc_ = 16;
                } else {
                    pc_ = 12;
                }
                return Status::kRunning;
            }
            case 15: {
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), cell_.safe, kBottom};
                    ++s.empty_transitions;
                    pc_ = 16;
                } else {
                    pc_ = 12;
                }
                return Status::kRunning;
            }
            case 16:
                tsnap_ = s.tail;
                if (tsnap_ <= t_ + 1) {
                    cand_ = t_ + 1;
                    pc_ = 17;
                } else {
                    pc_ = 21;
                }
                return Status::kRunning;
            case 17:
                // catchup: local guard, then CAS tail from snapshot to target.
                if (tsnap_ >= cand_) {
                    pc_ = 20;
                } else if (s.tail == tsnap_) {
                    s.tail = cand_;
                    ++s.catchups;
                    pc_ = 20;
                } else {
                    pc_ = 18;
                }
                return Status::kRunning;
            case 18:
                cand_ = s.head;  // new target: current head
                pc_ = 19;
                return Status::kRunning;
            case 19:
                tsnap_ = s.tail;  // new snapshot
                pc_ = 17;
                return Status::kRunning;
            case 20:
                s.threshold -= 1;
                return finish(kEmpty);
            case 21:
                if (s.threshold-- <= 0) {
                    ++s.threshold_empties;
                    return finish(kEmpty);
                }
                self().failed_round(11);
                return Status::kRunning;
            default: return finish(kEmpty);
        }
    }
};

// One SCQ ring operation: the fast path with SCQ's hooks.
class ScqModelOp : public ScqFastPath<ScqModelOp> {
  public:
    // Dequeue ops start at pc 10.
    ScqModelOp(Kind kind, value_t arg)
        : ScqFastPath(kind, arg, kind == Kind::kDequeue ? 10 : 0) {}
};

inline ScqModelOp make_scq_model_op(ScqModelOp::Kind kind, value_t arg) {
    return ScqModelOp(kind, arg);
}

}  // namespace lcrq::verify
