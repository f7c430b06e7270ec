// A small-step executable model of the wCQ helping protocol (verify
// substrate; extends the SCQ model, scq_model.hpp).
//
// Mirrors `queues/wcq.hpp`'s WcqRing, which is ScqTicketCore
// (`queues/scq.hpp`; F&A ticket, cycle/safe entry CAS, threshold-bounded
// EMPTY) plus helping.  The model is built the same way: the SCQ model's
// ScqFastPath with three hooks replaced (on_note, consume, failed_round),
// plus the wCQ slow path — request publication, note reservation, the
// single-word commit CAS on the request's arg word, idempotent cleanup —
// with every shared-memory access as one atomic step, so the explorer
// (explore.hpp) can enumerate the interleavings the helping layer exists
// for: a requester killed between placing its note and committing it, a
// ticket holder resolving a foreign note mid-chase, and the
// two-helpers-race on the commit word whose blind-revert variant loses
// items (see `corrected` below).
//
// Fidelity notes (kept in sync with wcq.hpp by the differential test):
//   * per-request records: the production ring multiplexes 64 tagged
//     slots and re-tags them per request; request identity there is
//     (slot, 16-bit tag), bijective to a fresh record up to the
//     documented tag-wrap bound.  The model gives every slow publication
//     a fresh record (identity = index), dropping the wrap — and with it
//     record collisions and the owner-mediated IDLE/CLAIMED/DONE
//     acquisition states that guard reuse, which are a
//     fallback-to-fast-path liveness detail, not a protocol transition
//     (a fresh record per request is exactly what owner-mediated reuse
//     guarantees each live requester).
//   * no close path: like the SCQ model (its known gap), the ring never
//     closes, so the kClosed resolutions drop out and fix_tail always
//     succeeds (it still takes its load+CAS steps — the tail race is real).
//   * self-help only: the help_if_needed() peer scan is not modeled (it
//     only changes *who* runs help steps, not which steps exist); note
//     resolution by fast-path ticket holders that encounter a note IS
//     modeled, and is exactly how peers interact with a dead requester.
//   * converging CAS-retry loops whose failure path only re-reads the
//     same word — cleanup materialize/consume, fix_head, the slow-path
//     catchup — are folded to one step each; their post-states are
//     schedule-independent and they publish no intermediate states.
//   * the publish folds the record stores and the initial-candidate tail
//     load into one step: the record words are private until the req
//     store makes them visible, and the candidate is only a heuristic
//     starting point for the chase.
//   * a fast-path enqueue resolves at most one note per round before
//     surrendering its ticket (the real put_at can resolve again after a
//     failed publish CAS) — a round-accounting detail, not a transition.
//
// `corrected = false` (ExploreConfig, shared with the LCRQ family's
// December-2013 knob) reverts a losing commit CAS *blindly*, the way a
// first reading of "lost the commit ⇒ my note lost" suggests.  That is
// wrong: the commit may have been decided in favour of this very note by
// a concurrent resolver, and reverting the winning note unpublishes a
// committed item.  The explorer finds the lost-item schedules; the
// corrected protocol re-reads arg and only reverts notes that lost to a
// different ticket (wcq.hpp does the same).
//
// Contract caveat for script authors: same as the SCQ model — keep ring
// occupancy (live items + in-flight enqueues) ≤ capacity, the invariant
// the fq/aq pairing enforces in the full Wcq.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "queues/queue_common.hpp"
#include "verify/history.hpp"  // kEmpty
#include "verify/scq_model.hpp"

namespace lcrq::verify {

// Shared wCQ ring state: the SCQ model's ring (whose cells carry the note
// reservation unpacked; the production entry packs note|kind|tag|slot
// into spare cycle bits, bijectively, so one modeled CAS is one real CAS)
// plus the helping records.
struct WcqModelState : ScqModelState {
    static constexpr std::uint64_t kArgNone = ~std::uint64_t{0};
    static constexpr std::uint64_t kArgEmpty = ~std::uint64_t{0} - 1;

    // One record per slow publication (see fidelity notes).  req's
    // (state, ticket) and the arg commit word are modeled verbatim; val
    // carries the enqueue input / dequeue output.
    struct Rec {
        bool deq;
        bool pending;
        std::uint64_t ticket;  // candidate, advanced by CAS
        std::uint64_t arg;     // kArgNone / kArgEmpty / committed ticket
        value_t val;
        friend bool operator==(const Rec&, const Rec&) = default;
    };
    std::vector<Rec> recs;

    // Helping coverage counters, next to the SCQ ones.
    std::uint32_t slow_publishes = 0;  // requests published
    std::uint32_t notes_placed = 0;    // note reservation CASes that landed
    std::uint32_t note_commits = 0;    // arg CASes deciding a ticket
    std::uint32_t note_reverts = 0;    // loser notes taken back
    std::uint32_t empty_commits = 0;   // arg CASes deciding EMPTY

    // `armed` starts the threshold at full — the reachable state right
    // after an enqueue/dequeue pair (a successful dequeue does not drop
    // the threshold).  Without it, the threshold<0 gate serializes every
    // dequeuer behind the first completed enqueue, and tiny scripts can
    // never lose a fast-path round — i.e. never reach the slow path.
    explicit WcqModelState(std::uint64_t capacity = 2, bool armed = false)
        : ScqModelState(capacity) {
        if (armed) threshold = threshold_full();
    }
};

// One wCQ operation as a resumable step machine.  Program counters:
//   fast enqueue  0-5   (ScqFastPath; on_note resolves once per ticket)
//   fast dequeue 10-21  (ScqFastPath; consume is a CAS, not fetch-or,
//                        exactly as WcqRing's consume hook)
//   slow enqueue 30-46  (publish, help loop, fix_tail, commit, cleanup)
//   slow dequeue 50-67  (publish, help loop, EMPTY commit, cleanup)
//   resolve_note 80-90  (subroutine; returns to rs_ret_)
class WcqModelOp : public ScqFastPath<WcqModelOp> {
  public:
    WcqModelOp(Kind kind, value_t arg, unsigned patience, bool corrected,
               bool force_slow)
        : ScqFastPath(kind, arg,
                      kind == Kind::kDequeue ? (force_slow ? 50 : 10)
                                             : (force_slow ? 30 : 0)),
          patience_(patience),
          corrected_(corrected) {}

    Status step(WcqModelState& s) {
        if (pc_ >= 80) return step_resolve(s);
        if (pc_ >= 50) return step_slow_deq(s);
        if (pc_ >= 30) return step_slow_enq(s);
        return ScqFastPath::step(s);
    }

  private:
    friend class ScqFastPath<WcqModelOp>;
    static constexpr std::uint32_t kNoRec = WcqModelState::kNoRec;
    static constexpr std::uint64_t kArgNone = WcqModelState::kArgNone;
    static constexpr std::uint64_t kArgEmpty = WcqModelState::kArgEmpty;
    static constexpr std::uint64_t kNoTicket = ~std::uint64_t{0};

    // Enter the resolve_note subroutine for the note in cell_, found at
    // ticket position t_; resume at ret when it returns.
    Status start_resolve(const ScqModelState& s, unsigned ret) {
        rs_rec_ = cell_.rec;
        rs_saved_ = cell_;
        rs_t_ = cell_.cycle * s.N() + (t_ % s.N());
        rs_ret_ = ret;
        pc_ = 80;
        return Status::kRunning;
    }

    // --- the fast-path hooks ------------------------------------------------
    // A reserved entry: a dequeuer resolves it and reloads; an enqueuer
    // drives it to a decision once per ticket, then gives the ticket up if
    // the entry is still reserved.
    Status on_note(ScqModelState& s) {
        if (pc_ == 12) return start_resolve(s, 12);
        if (resolved_t_ == t_) {
            failed_round(0);
            return Status::kRunning;
        }
        resolved_t_ = t_;
        return start_resolve(s, 1);
    }

    // Consume by CAS against the pc-12 snapshot, not fetch-or: the entry
    // must not be stamped while a helper could be turning it into a note.
    Status consume(ScqModelState& s) {
        Cell& c = cell(s, t_);
        if (c == cell_) {
            c = {s.cycle_of_ticket(t_), cell_.safe, kBottom};
            return finish(cell_.idx);
        }
        pc_ = 12;
        return Status::kRunning;
    }

    // Patience: past it, a failed round publishes a helping request.
    void failed_round(unsigned retry_pc) {
        if (++rounds_ <= patience_) pc_ = retry_pc;
        else pc_ = kind_ == Kind::kEnqueue ? 30 : 50;
    }

    // --- slow enqueue: mirrors enqueue_slow + help_enqueue ----------------
    Status step_slow_enq(WcqModelState& s) {
        switch (pc_) {
            case 30:  // publish (record stores folded; see fidelity notes)
                rec_ = static_cast<std::uint32_t>(s.recs.size());
                s.recs.push_back({false, true, s.tail, kArgNone, arg_});
                ++s.slow_publishes;
                pc_ = 31;
                return Status::kRunning;
            case 31: {  // load arg: decided?
                const std::uint64_t a = s.recs[rec_].arg;
                if (a == kArgNone) {
                    pc_ = 32;
                } else {
                    ct_ = a;
                    pc_ = 43;
                }
                return Status::kRunning;
            }
            case 32:  // load req: candidate ticket
                cand_ = s.recs[rec_].ticket;
                t_ = cand_;
                pc_ = 33;
                return Status::kRunning;
            case 33: {  // load entry at the candidate
                const Cell& c = cell(s, t_);
                cell_ = c;
                if (c.note) {
                    if (c.rec == rec_ && c.cycle == s.cycle_of_ticket(t_)) {
                        // Our own pending note (its placer may be stalled
                        // anywhere): adopt it — fix tail, then commit.
                        placed_ = false;
                        noted_ = c;
                        pc_ = 38;
                        return Status::kRunning;
                    }
                    return start_resolve(s, 31);
                }
                if (c.cycle < s.cycle_of_ticket(t_) && c.idx == kBottom) {
                    pc_ = c.safe ? 37 : 34;
                } else {
                    pc_ = 35;  // unusable: advance the candidate
                }
                return Status::kRunning;
            }
            case 34:  // unsafe cell: the head <= t rescue check
                if (s.head <= t_) {
                    ++s.enq_rescues;
                    pc_ = 37;
                } else {
                    pc_ = 35;
                }
                return Status::kRunning;
            case 35:  // next candidate = max(t+1, tail)
                tsnap_ = s.tail;
                pc_ = 36;
                return Status::kRunning;
            case 36: {  // candidate CAS on req
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.pending && r.ticket == cand_) {
                    r.ticket = std::max(t_ + 1, tsnap_);
                }
                pc_ = 31;
                return Status::kRunning;
            }
            case 37: {  // note-place CAS
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), true, arg_, true, false, rec_};
                    noted_ = c;
                    ++s.notes_placed;
                    placed_ = true;
                    pc_ = 38;
                } else {
                    pc_ = 33;
                }
                return Status::kRunning;
            }
            case 38:  // fix_tail: load
                tsnap_ = s.tail;
                pc_ = tsnap_ > t_ ? 40 : 39;
                return Status::kRunning;
            case 39:  // fix_tail: CAS
                if (s.tail == tsnap_) {
                    s.tail = t_ + 1;
                    pc_ = 40;
                } else {
                    pc_ = 38;
                }
                return Status::kRunning;
            case 40: {  // commit CAS on arg
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.arg == kArgNone) {
                    r.arg = t_;
                    ++s.note_commits;
                    ct_ = t_;
                    pc_ = 43;
                } else if (!placed_) {
                    pc_ = 31;  // adopted note: the loop re-reads arg
                } else {
                    pc_ = corrected_ ? 41 : 42;
                }
                return Status::kRunning;
            }
            case 41:  // corrected lose-branch: did OUR ticket win anyway?
                pc_ = s.recs[rec_].arg == t_ ? 31 : 42;
                return Status::kRunning;
            case 42: {  // revert the loser note
                Cell& c = cell(s, t_);
                if (c == noted_) {
                    c = {noted_.cycle, noted_.safe, kBottom};
                    ++s.note_reverts;
                }
                pc_ = 31;
                return Status::kRunning;
            }
            case 43: {  // cleanup: materialize the winning note (folded)
                Cell& c = cell(s, ct_);
                if (c.note && c.rec == rec_ &&
                    c.cycle == s.cycle_of_ticket(ct_)) {
                    c = {c.cycle, c.safe, c.idx};
                    pc_ = 44;
                } else {
                    pc_ = 46;  // already materialized (maybe consumed)
                }
                return Status::kRunning;
            }
            case 44:
                pc_ = s.threshold != s.threshold_full() ? 45 : 46;
                return Status::kRunning;
            case 45:
                s.threshold = s.threshold_full();
                pc_ = 46;
                return Status::kRunning;
            case 46:  // finish_req
                s.recs[rec_].pending = false;
                return finish(arg_);
            default: return finish(arg_);
        }
    }

    // --- slow dequeue: mirrors dequeue_slow + help_dequeue ----------------
    Status step_slow_deq(WcqModelState& s) {
        switch (pc_) {
            case 50:  // publish
                rec_ = static_cast<std::uint32_t>(s.recs.size());
                s.recs.push_back({true, true, s.head, kArgNone, 0});
                ++s.slow_publishes;
                pc_ = 51;
                return Status::kRunning;
            case 51: {  // load arg
                const std::uint64_t a = s.recs[rec_].arg;
                if (a == kArgNone) {
                    pc_ = 52;
                } else if (a == kArgEmpty) {
                    empty_result_ = true;
                    pc_ = 56;
                } else {
                    ct_ = a;
                    pc_ = 59;
                }
                return Status::kRunning;
            }
            case 52:
                cand_ = s.recs[rec_].ticket;
                t_ = cand_;
                pc_ = 53;
                return Status::kRunning;
            case 53: {  // load entry at the candidate
                const Cell& c = cell(s, t_);
                cell_ = c;
                const std::uint64_t hc = s.cycle_of_ticket(t_);
                if (c.note && c.cycle == hc) {
                    if (c.rec == rec_ && c.note_deq) {
                        placed_ = false;
                        noted_ = c;
                        pc_ = 55;  // our own pending note: adopt and commit
                        return Status::kRunning;
                    }
                    return start_resolve(s, 51);
                }
                if (c.note) return start_resolve(s, 51);  // old cycle
                if (c.cycle == hc && c.idx != kBottom) {
                    pc_ = 54;  // consumable: reserve it
                } else if (c.cycle < hc && c.idx != kBottom) {
                    pc_ = c.safe ? 61 : 63;
                } else if (c.cycle < hc) {
                    pc_ = 62;
                } else {
                    pc_ = 63;  // cycle == hc && ⊥, or overtaken
                }
                return Status::kRunning;
            }
            case 54: {  // note-place CAS
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {c.cycle, c.safe, c.idx, true, true, rec_};
                    noted_ = c;
                    ++s.notes_placed;
                    placed_ = true;
                    pc_ = 55;
                } else {
                    pc_ = 53;
                }
                return Status::kRunning;
            }
            case 55: {  // commit CAS on arg
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.arg == kArgNone) {
                    r.arg = t_;
                    ++s.note_commits;
                    ct_ = t_;
                    pc_ = 59;
                } else if (!placed_) {
                    pc_ = 51;
                } else {
                    pc_ = corrected_ ? 57 : 58;
                }
                return Status::kRunning;
            }
            case 56:  // finish_req + read the result
                s.recs[rec_].pending = false;
                return finish(empty_result_ ? kEmpty : s.recs[rec_].val);
            case 57:  // corrected lose-branch
                pc_ = s.recs[rec_].arg == t_ ? 51 : 58;
                return Status::kRunning;
            case 58: {  // revert the loser note: release the covered item
                Cell& c = cell(s, t_);
                if (c == noted_) {
                    c = {noted_.cycle, noted_.safe, noted_.idx};
                    ++s.note_reverts;
                }
                pc_ = 51;
                return Status::kRunning;
            }
            case 59: {  // cleanup: publish val, consume the cell (folded)
                Cell& c = cell(s, ct_);
                if (c.note && c.rec == rec_ &&
                    c.cycle == s.cycle_of_ticket(ct_)) {
                    s.recs[rec_].val = c.idx;
                    c = {c.cycle, c.safe, kBottom};
                }
                pc_ = 60;
                return Status::kRunning;
            }
            case 60:  // fix_head past the consumed ticket (folded)
                if (s.head <= ct_) s.head = ct_ + 1;
                pc_ = 56;
                return Status::kRunning;
            case 61: {  // ticket holder's unsafe transition
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c.safe = false;
                    ++s.unsafe_transitions;
                    pc_ = 63;
                } else {
                    pc_ = 53;
                }
                return Status::kRunning;
            }
            case 62: {  // ticket holder's empty transition
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), cell_.safe, kBottom};
                    ++s.empty_transitions;
                    pc_ = 63;
                } else {
                    pc_ = 53;
                }
                return Status::kRunning;
            }
            case 63:  // EMPTY check
                tsnap_ = s.tail;
                pc_ = tsnap_ <= t_ + 1 ? 64 : 66;
                return Status::kRunning;
            case 64:  // catchup (folded)
                if (s.tail == tsnap_ && tsnap_ < t_ + 1) {
                    s.tail = t_ + 1;
                    ++s.catchups;
                }
                pc_ = 65;
                return Status::kRunning;
            case 65: {  // EMPTY commit CAS on arg
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.arg == kArgNone) {
                    r.arg = kArgEmpty;
                    ++s.empty_commits;
                }
                pc_ = 51;
                return Status::kRunning;
            }
            case 66:  // next candidate = max(h+1, head)
                tsnap_ = s.head;
                pc_ = 67;
                return Status::kRunning;
            case 67: {
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.pending && r.ticket == cand_) {
                    r.ticket = std::max(t_ + 1, tsnap_);
                }
                pc_ = 51;
                return Status::kRunning;
            }
            default: return finish(kEmpty);
        }
    }

    // --- resolve_note: drive a foreign (or stale own) note to a decision --
    Status step_resolve(WcqModelState& s) {
        switch (pc_) {
            case 80: {  // is the note still there?
                const Cell& c = cell(s, rs_t_);
                if (!(c == rs_saved_)) {
                    pc_ = rs_ret_;
                } else {
                    pc_ = 81;
                }
                return Status::kRunning;
            }
            case 81: {  // load the request's arg
                const std::uint64_t a = s.recs[rs_rec_].arg;
                if (a == kArgNone) {
                    // Undecided: decide in favour of this note (enqueue
                    // notes must fix tail first, exactly like the owner).
                    pc_ = rs_saved_.note_deq ? 84 : 82;
                } else if (a == rs_t_) {
                    pc_ = 86;  // this note won: finish the cleanup
                } else {
                    pc_ = 85;  // committed elsewhere: loser
                }
                return Status::kRunning;
            }
            case 82:  // fix_tail: load
                tsnap_ = s.tail;
                pc_ = tsnap_ > rs_t_ ? 84 : 83;
                return Status::kRunning;
            case 83:  // fix_tail: CAS
                if (s.tail == tsnap_) {
                    s.tail = rs_t_ + 1;
                    pc_ = 84;
                } else {
                    pc_ = 82;
                }
                return Status::kRunning;
            case 84: {  // decide CAS, then re-read (the owner may race us)
                WcqModelState::Rec& r = s.recs[rs_rec_];
                if (r.arg == kArgNone) {
                    r.arg = rs_t_;
                    ++s.note_commits;
                }
                pc_ = 80;
                return Status::kRunning;
            }
            case 85: {  // revert the loser note
                Cell& c = cell(s, rs_t_);
                if (c == rs_saved_) {
                    c = rs_saved_.note_deq
                            ? Cell{rs_saved_.cycle, rs_saved_.safe,
                                   rs_saved_.idx}
                            : Cell{rs_saved_.cycle, rs_saved_.safe, kBottom};
                    ++s.note_reverts;
                }
                pc_ = rs_ret_;
                return Status::kRunning;
            }
            case 86: {  // cleanup on the winner's behalf (folded)
                Cell& c = cell(s, rs_t_);
                const bool mine = c.note && c.rec == rs_rec_ &&
                                  c.cycle == s.cycle_of_ticket(rs_t_);
                if (rs_saved_.note_deq) {
                    if (mine) {
                        s.recs[rs_rec_].val = c.idx;
                        c = {c.cycle, c.safe, kBottom};
                    }
                    pc_ = 90;
                } else {
                    if (mine) {
                        c = {c.cycle, c.safe, c.idx};
                        pc_ = 87;
                    } else {
                        pc_ = 89;
                    }
                }
                return Status::kRunning;
            }
            case 87:
                pc_ = s.threshold != s.threshold_full() ? 88 : 89;
                return Status::kRunning;
            case 88:
                s.threshold = s.threshold_full();
                pc_ = 89;
                return Status::kRunning;
            case 89:  // finish_req for the helped request
                s.recs[rs_rec_].pending = false;
                pc_ = rs_ret_;
                return Status::kRunning;
            case 90:  // fix_head for the helped dequeue (folded)
                if (s.head <= rs_t_) s.head = rs_t_ + 1;
                pc_ = 89;
                return Status::kRunning;
            default:
                pc_ = rs_ret_;
                return Status::kRunning;
        }
    }

    unsigned patience_;
    bool corrected_;
    unsigned rounds_ = 0;
    std::uint64_t resolved_t_ = kNoTicket;  // fast-enqueue ticket whose note was resolved
    std::uint64_t ct_ = 0;        // committed ticket (cleanup target)
    std::uint32_t rec_ = kNoRec;  // own request record
    Cell noted_{};  // our placed/adopted note, for the revert CAS
    bool placed_ = false;
    bool empty_result_ = false;
    // resolve_note frame
    std::uint32_t rs_rec_ = kNoRec;
    std::uint64_t rs_t_ = 0;
    Cell rs_saved_{};
    unsigned rs_ret_ = 0;
};

inline WcqModelOp make_wcq_model_op(WcqModelOp::Kind kind, value_t arg,
                                    unsigned patience = 64,
                                    bool corrected = true,
                                    bool force_slow = false) {
    return WcqModelOp(kind, arg, patience, corrected, force_slow);
}

}  // namespace lcrq::verify
