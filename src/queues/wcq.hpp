// wCQ-style wait-free ring on the SCQ substrate (Nikolaev & Ravindran,
// "wCQ: A Fast Wait-Free Queue with Bounded Memory Usage", SPAA'22 /
// arXiv 2201.02179; see PAPERS.md).
//
// WcqRing runs ScqRing's fast path: the ticket core (ticket_ring.hpp)
// holds head/tail and the claim loops, ScqTicketCore (scq.hpp) the
// geometry, the threshold, the entry steps put_at/take_at and the EMPTY
// rules, and they call back three hooks where wCQ differs from SCQ —
// resolve_note when an entry holds a reservation, a CAS consume, and
// patience in failed_round.  On top it adds the wCQ idea:
// when a thread runs out of patience (or is descheduled forever), its
// operation is published as a *helping record* that any other thread can
// finish.  Every shared-memory step stays a single-word CAS/F&A; there is
// no CAS2 anywhere, matching the SCQ portability story.
//
// Helping protocol (the part beyond SCQ):
//   * 64 packed records per ring (24 B each, the slots of 8 consecutive
//     thread ids on 8 different line pairs); a slow-path thread claims the
//     record for thread_index()%64 and publishes three tagged words:
//       req = (tag | kind | state | candidate ticket)
//       arg = (tag | commit payload)   — the arbitration word
//       val = (tag | value in/out)     — enqueue input / dequeue output
//     Record reuse is owner-mediated: the req state walks
//       IDLE -claim-> CLAIMED -publish-> PENDING -help-> DONE -owner-> IDLE
//     where only the owning requester performs the claim (a CAS that
//     refuses every non-IDLE state, so two threads hashing to the same
//     slot can never both think they own it) and the final DONE -> IDLE
//     release — after it has copied arg/val out.  Helpers stop at DONE;
//     without that handshake a peer sharing the slot could reacquire the
//     record and overwrite arg/val before the original requester read
//     its result.
//   * helpers read the candidate ticket from req (no F&A: the slow path
//     adds no ticket traffic), examine the ring cell for that ticket, and
//     either advance the candidate (CAS on req) or *reserve* the cell with
//     a note: a single-word CAS that rewrites the cell as
//       [cycle | safe | note | kind | tag16 | slot6 | idx]
//     carrying the full request identity.
//   * commit point: CAS arg from (tag, kNone) to (tag, ticket).  Exactly
//     one note per request wins; every other note for the request is a
//     loser and is reverted (enqueue note -> empty cell, dequeue note ->
//     the item it covered).  After the commit, cleanup — materializing a
//     won enqueue note into a plain item, consuming a won dequeue note
//     into val, fixing head/tail, setting req done — is idempotent and can
//     be finished by any thread, which is what makes a mid-operation
//     thread kill survivable.
//
// Why reservation is safe: a note CAS expects the exact cell word the
// helper validated, and SCQ's own invariant — the unique ticket-t dequeuer
// transforms every ⊥ cell (empty transition) and consumes every item cell
// before ticket t is spent — guarantees a stale reservation always fails
// its CAS.  Conversely a *placed* note implies the ticket holder has not
// passed yet, so the holder itself will resolve the note (help-commit or
// revert) when it arrives; no committed item can be stranded behind an
// already-burned ticket.
//
// Linearization: items linearize at the entry CAS that makes them visible
// (materialize for slow enqueues, exactly like put_at for fast ones);
// EMPTY linearizes at the tail load that observed tail <= h+1 (a committed
// slow enqueue fixes tail *before* its commit, so the check is exact).
// The commit CAS on arg is internal arbitration only.
//
// Bounds and caveats (docs/ALGORITHM.md §7 has the full argument):
//   * note tags are 16 bits: a loser note can be mis-bound only after the
//     same slot runs 2^16 requests while the note sits unresolved on a
//     never-visited cell — the same flavour of finite-counter ABA bound as
//     SCQ's finite cycle field, and far beyond any test horizon.
//   * the entry steals 24 bits (note+kind+tag16+slot6) from the cycle
//     field, so ring orders above 20 are rejected.
//   * a killed thread leaks at most its in-flight free-list index and one
//     helping record: peers still drive its published request to DONE
//     (no operation is lost), but the DONE -> IDLE release is owner-only,
//     so the dead owner's slot stays retired and threads hashing to it
//     fall back to the (lock-free) fast path.  Memory stays bounded per
//     kill, the wCQ property the lwcq layer preserves by recycling rings
//     (and their records) through the segment pool.
//   * a thread killed between counting a request (slow_count_) and
//     publishing it leaves the counter permanently one high — helpers
//     then run harmless empty scans.  The opposite order would let a
//     helper's retire underflow the counter, which is why the increment
//     comes first (kWcqSlowCounted marks the window).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/inject.hpp"
#include "arch/thread_id.hpp"
#include "queues/queue_common.hpp"
#include "queues/scq.hpp"

namespace lcrq {

// Helping-layer tuning shared by both rings of a Wcq.  Lives in
// QueueOptions (wcq_patience / wcq_helping); the helping flag is the
// ablation knob the killed-peer injection tests flip.
struct WcqConfig {
    // Failed fast-path rounds before an operation publishes a request.
    unsigned patience = 64;
    // Peer helping: when false, threads still publish and self-help their
    // own requests (so the slow path itself stays exercised) but never
    // scan for or complete a peer's — a killed requester's operation then
    // hangs forever, which is exactly what the ablation tests assert.
    bool helping = true;
};

inline constexpr std::size_t kWcqSlots = 64;

// Width of the note field a wCQ entry carries between its index and its
// safe bit: note flag, note kind, 16-bit request tag, 6-bit record slot.
inline constexpr unsigned kWcqNoteBits = 24;

template <class Faa = HardwareFaa>
class WcqRing : public ScqTicketCore<kWcqNoteBits> {
  public:
    // Registry names of the bounded and list queues over this ring.
    static constexpr const char* kName = "wcq";
    static constexpr const char* kListName = "lwcq";
    using Config = WcqConfig;
    static WcqConfig config_of(const QueueOptions& opt) noexcept {
        return WcqConfig{opt.wcq_patience, opt.wcq_helping};
    }

    explicit WcqRing(unsigned order, std::uint64_t seed_begin = 0,
                     std::uint64_t seed_end = 0, WcqConfig cfg = {},
                     bool huge = false)
        : ScqTicketCore(Faa{}, order, seed_begin, seed_end, huge), cfg_(cfg) {
        assert(order <= 20 && "wcq entries carry 24 bits of helping metadata");
    }

    // In-place reinit for segment recycling (cf. ScqRing::reset).  Also
    // clears the helping records: a recycled ring must not resurrect a
    // previous incarnation's requests.
    void reset(std::uint64_t seed_begin = 0, std::uint64_t seed_end = 0,
               WcqConfig cfg = {}) {
        cfg_ = cfg;
        for (auto& rec : records_) {
            rec.req.store(0, std::memory_order_relaxed);
            rec.arg.store(0, std::memory_order_relaxed);
            rec.val.store(0, std::memory_order_relaxed);
        }
        slow_count_.store(0, std::memory_order_relaxed);
        init_ring(seed_begin, seed_end);
    }

    // --- public operations (ScqRing interface + helping) ------------------

    EnqueueResult enqueue(std::uint64_t idx) {
        help_if_needed();
        return claim_enqueue<Faa>(*this, idx);
    }

    std::optional<std::uint64_t> dequeue() {
        help_if_needed();
        return claim_dequeue<Faa>(*this);
    }

    // Force the slow path (tests / model differential): publish a request
    // immediately instead of burning patience.  Returns nullopt on record
    // collision (another thread with the same slot has a request in
    // flight); the caller falls back to the fast path.
    std::optional<EnqueueResult> debug_enqueue_slow(std::uint64_t idx) {
        return enqueue_slow(idx);
    }
    // Returns true with the result in `out` (nullopt = EMPTY); false on
    // record collision.
    bool debug_dequeue_slow(std::optional<std::uint64_t>& out) {
        return dequeue_slow(out);
    }

    // Pending published requests (tests assert helping drains this).  May
    // over-count by one per thread killed between counting and publishing
    // a request (the kWcqSlowCounted window) — an over-count only costs
    // empty help scans, whereas the opposite order could underflow.
    std::uint64_t pending_requests() const noexcept {
        return slow_count_.load(std::memory_order_seq_cst);
    }

    // Run one helping pass over the records regardless of the helping
    // knob (the requester's own self-help uses this; tests use it to
    // demonstrate that a peer's scan completes a dead thread's request).
    void help_all() {
        for (std::size_t s = 0; s < kWcqSlots; ++s) help_slot(s);
    }

    // Test-only visibility into the owner-mediated record lifecycle:
    // 0 = idle, 1 = pending, 2 = done, 3 = claimed (see ReqState).
    unsigned debug_record_state(std::size_t s) const {
        return static_cast<unsigned>(
            req_state(record(s).req.load(std::memory_order_seq_cst)));
    }
    // Where slot s's record lives (tests pin the packed, spread layout).
    const void* debug_record_address(std::size_t s) const noexcept {
        return &record(s);
    }

  private:
    // The claim loops and the entry steps call the hooks below.
    friend class TicketRing;
    friend class ScqTicketCore<kWcqNoteBits>;

    // --- word layouts -----------------------------------------------------
    //
    // Entry: [ cycle | safe | note | nkind | tag:16 | slot:6 | idx:idx_bits ]
    // req:   [ tag:16 | kind:1 | state:2 | ticket:45 ]
    // arg:   [ tag:16 | payload:48 ]   payload = ticket | kNone/kClosed/kEmpty
    // val:   [ tag:16 | value:48 ]     enqueue input / dequeue output

    static constexpr unsigned kSlotBits = 6;
    static_assert((std::size_t{1} << kSlotBits) == kWcqSlots);
    static constexpr unsigned kTagBits = 16;

    static constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << 48) - 1;
    static constexpr std::uint64_t kNonePayload = kPayloadMask;
    static constexpr std::uint64_t kClosedPayload = kPayloadMask - 1;
    static constexpr std::uint64_t kEmptyPayload = kPayloadMask - 2;
    static constexpr std::uint64_t kMaxTicket = (std::uint64_t{1} << 45) - 1;

    // Owner-mediated record lifecycle (see the header comment):
    //   kStIdle    — unowned; the only state acquire_help_record accepts.
    //   kStClaimed — acquired, request words not yet published; helpers
    //                ignore it (and a kill here retires the slot).
    //   kStPending — published; any thread may help and finish it.
    //   kStDone    — finished; arg/val hold the result and stay frozen
    //                until the owner copies them out and releases.
    enum ReqState : std::uint64_t {
        kStIdle = 0,
        kStPending = 1,
        kStDone = 2,
        kStClaimed = 3
    };
    enum ReqKind : std::uint64_t { kKindEnq = 0, kKindDeq = 1 };

    // Records are packed, not padded to a line pair each: the slow path
    // runs only past patience, and padded, 64 records take 8 KiB a ring,
    // two rings a segment, 80% of an lwcq segment at R = 2^6.
    // record(s) spreads them instead, as remap() spreads ring entries:
    // slot s lives at array position spread(s, 6) (cacheline.hpp), so slots
    // 0..7 start 192 B apart and the records of any 8 consecutive slots
    // touch 8 disjoint line pairs.  Concurrent slow paths keep the
    // isolation the padding gave them; packed in slot order, neighbours
    // would share lines (EXPERIMENTS.md, "Packed, spread wCQ help
    // records").  The array is pair-aligned, so no record shares a line
    // with cfg_, slow_count_ or whatever follows the ring.
    struct HelpRecord {
        std::atomic<std::uint64_t> req{0};
        std::atomic<std::uint64_t> arg{0};
        std::atomic<std::uint64_t> val{0};
    };

    static constexpr std::size_t record_position(std::size_t s) noexcept {
        return spread(s, kSlotBits);
    }
    HelpRecord& record(std::size_t s) noexcept {
        return records_[record_position(s)];
    }
    const HelpRecord& record(std::size_t s) const noexcept {
        return records_[record_position(s)];
    }

    static constexpr std::uint64_t pack_req(std::uint64_t tag, ReqKind kind,
                                            ReqState state,
                                            std::uint64_t ticket) noexcept {
        return (tag << 48) | (static_cast<std::uint64_t>(kind) << 47) |
               (static_cast<std::uint64_t>(state) << 45) | ticket;
    }
    static constexpr std::uint64_t req_tag(std::uint64_t r) noexcept {
        return r >> 48;
    }
    static constexpr ReqKind req_kind(std::uint64_t r) noexcept {
        return static_cast<ReqKind>((r >> 47) & 1);
    }
    static constexpr ReqState req_state(std::uint64_t r) noexcept {
        return static_cast<ReqState>((r >> 45) & 3);
    }
    static constexpr std::uint64_t req_ticket(std::uint64_t r) noexcept {
        return r & kMaxTicket;
    }
    static constexpr std::uint64_t pack_tagged(std::uint64_t tag,
                                               std::uint64_t payload) noexcept {
        return (tag << 48) | (payload & kPayloadMask);
    }
    static constexpr std::uint64_t tag_of(std::uint64_t w) noexcept {
        return w >> 48;
    }
    static constexpr std::uint64_t payload_of(std::uint64_t w) noexcept {
        return w & kPayloadMask;
    }

    // Note-field bit positions (from LSB): idx, slot, tag, nkind, note;
    // the ticket core owns the note flag (note_shift, is_note) and puts
    // safe and cycle above it.
    unsigned slot_shift() const noexcept { return idx_bits_; }
    unsigned tag_shift() const noexcept { return idx_bits_ + kSlotBits; }
    unsigned nkind_shift() const noexcept { return idx_bits_ + kSlotBits + kTagBits; }
    static_assert(kSlotBits + kTagBits + 2 == kWcqNoteBits);

    std::uint64_t pack_note(std::uint64_t cycle, bool safe, ReqKind kind,
                            std::uint64_t tag, std::uint64_t slot,
                            std::uint64_t idx) const noexcept {
        return (cycle << cycle_shift()) |
               (safe ? (std::uint64_t{1} << safe_shift()) : 0) |
               (std::uint64_t{1} << note_shift()) |
               (static_cast<std::uint64_t>(kind) << nkind_shift()) |
               (tag << tag_shift()) | (slot << slot_shift()) | idx;
    }
    ReqKind note_kind(std::uint64_t e) const noexcept {
        return static_cast<ReqKind>((e >> nkind_shift()) & 1);
    }
    std::uint64_t note_tag(std::uint64_t e) const noexcept {
        return (e >> tag_shift()) & ((std::uint64_t{1} << kTagBits) - 1);
    }
    std::uint64_t note_slot(std::uint64_t e) const noexcept {
        return (e >> slot_shift()) & (kWcqSlots - 1);
    }

    // --- the fast-path hooks ----------------------------------------------
    // The note hook is the helping layer's resolve_note (below).

    // Consume by CAS against the snapshot, not ScqRing's fetch-or: the
    // entry must not be blindly stamped while a helper could be turning it
    // into a note.  False when the CAS lost.
    bool consume(Entry& entry, std::uint64_t e, std::uint64_t hc) {
        LCRQ_INJECT_POINT(kScqBeforeEntryCas);
        return counted_cas(entry, e, pack(hc, is_safe(e), bottom_));
    }

    // Patience: past it, a failed round publishes a helping request.  On a
    // record collision the operation stays on the fast path for another
    // patience's worth of rounds.  A slow dequeue's index comes back in idx.
    std::optional<EnqueueResult> failed_round(std::uint64_t, unsigned& rounds,
                                              std::uint64_t idx) {
        if (++rounds <= cfg_.patience) return std::nullopt;
        rounds = 0;
        return enqueue_slow(idx);
    }
    std::optional<bool> failed_round(unsigned& rounds, std::uint64_t& idx) {
        if (++rounds <= cfg_.patience) return std::nullopt;
        rounds = 0;
        std::optional<std::uint64_t> out;
        if (!dequeue_slow(out)) return std::nullopt;
        idx = out.value_or(idx);
        return out.has_value();
    }

    // --- helping layer ----------------------------------------------------

    std::size_t my_slot() const noexcept { return thread_index() % kWcqSlots; }

    void help_if_needed() {
        if (!cfg_.helping) return;
        if (slow_count_.load(std::memory_order_relaxed) == 0) return;
        LCRQ_INJECT_POINT(kWcqHelpScan);
        help_all();
    }

    // Publish + self-help an enqueue request.  nullopt = record collision.
    std::optional<EnqueueResult> enqueue_slow(std::uint64_t idx) {
        const auto pl = publish_and_wait(kKindEnq, idx);
        if (!pl.has_value()) return std::nullopt;
        return *pl == kClosedPayload ? EnqueueResult::kClosed : EnqueueResult::kOk;
    }

    // Publish + self-help a dequeue request.  False = record collision.
    bool dequeue_slow(std::optional<std::uint64_t>& out) {
        const auto pl = publish_and_wait(kKindDeq, kNonePayload);
        if (!pl.has_value()) return false;
        out = *pl == kEmptyPayload ? std::nullopt : pl;
        return true;
    }

    // Claim this thread's record, publish a request of `kind` with input
    // `in`, help until it is done, and release the record.  Returns the
    // answer — arg's payload, or for a dequeue that took an index, val's —
    // or nullopt on record collision.
    std::optional<std::uint64_t> publish_and_wait(ReqKind kind, std::uint64_t in) {
        const std::size_t s = my_slot();
        std::uint64_t g = 0;
        if (!acquire_help_record(s, kind, g)) return std::nullopt;
        HelpRecord& rec = record(s);
        rec.val.store(pack_tagged(g, in), std::memory_order_seq_cst);
        rec.arg.store(pack_tagged(g, kNonePayload), std::memory_order_seq_cst);
        // Count before publishing: a thread killed in between only leaves
        // the counter one high (harmless extra scans).  Counting after
        // would let a helper that finishes the orphan underflow it.
        slow_count_.fetch_add(1, std::memory_order_seq_cst);
        LCRQ_INJECT_POINT(kWcqSlowCounted);
        // The first candidate ticket; the slow path claims none by F&A.
        const std::uint64_t t0 =
            kind == kKindEnq
                ? tail_->load(std::memory_order_seq_cst) & detail::kIdxMask
                : head_->load(std::memory_order_seq_cst);
        rec.req.store(pack_req(g, kind, kStPending, t0), std::memory_order_seq_cst);
        stats::count(stats::Event::kWcqSlowPath);
        LCRQ_INJECT_POINT(kWcqReqPublished);
        wait_done(s, g);
        const std::uint64_t a = rec.arg.load(std::memory_order_seq_cst);
        assert(tag_of(a) == g && "arg is frozen until the owner releases");
        std::uint64_t answer = payload_of(a);
        if (kind == kKindDeq && answer != kEmptyPayload) {
            const std::uint64_t vw = rec.val.load(std::memory_order_seq_cst);
            assert(tag_of(vw) == g && "val is frozen until the owner releases");
            answer = payload_of(vw);
        }
        release_help_record(s, g, kind);
        return answer;
    }

    // Claim the slot's record for a new request.  Only an IDLE record is
    // acquirable: PENDING/CLAIMED belong to a live (or dead) request in
    // flight, and DONE still holds a result its owner has not copied out —
    // handing the record over in either state would let this thread
    // overwrite arg/val under the original requester.  The CAS into
    // CLAIMED also means two threads sharing the slot can never both win
    // the acquisition (a bare tag bump from IDLE could be observed and
    // re-bumped by a racing peer before our publish).
    bool acquire_help_record(std::size_t s, ReqKind kind, std::uint64_t& g) {
        HelpRecord& rec = record(s);
        const std::uint64_t r = rec.req.load(std::memory_order_seq_cst);
        if (req_state(r) != kStIdle) return false;  // slot collision
        g = (req_tag(r) + 1) & ((std::uint64_t{1} << kTagBits) - 1);
        return counted_cas(rec.req, r, pack_req(g, kind, kStClaimed, 0));
    }

    // The owner's DONE -> IDLE handback, after copying the result out.
    // Nothing else writes a DONE record (helpers require PENDING, acquire
    // requires IDLE), so a plain store suffices.
    void release_help_record(std::size_t s, std::uint64_t g, ReqKind kind) {
        record(s).req.store(pack_req(g, kind, kStIdle, 0),
                            std::memory_order_seq_cst);
    }

    void wait_done(std::size_t s, [[maybe_unused]] std::uint64_t g) {
        SpinWait waiter;
        for (;;) {
            help_slot(s);
            const std::uint64_t r = record(s).req.load(std::memory_order_seq_cst);
            assert(req_tag(r) == g && "record reuse is owner-mediated");
            if (req_state(r) == kStDone) return;
            waiter.spin();
        }
    }

    void help_slot(std::size_t s) {
        const std::uint64_t r = record(s).req.load(std::memory_order_seq_cst);
        if (req_state(r) != kStPending) return;
        stats::count(stats::Event::kWcqHelp);
        if (req_kind(r) == kKindEnq) {
            help_enqueue(s, req_tag(r));
        } else {
            help_dequeue(s, req_tag(r));
        }
    }

    // Transition req (g, pending) -> (g, done); the winner of that CAS
    // also retires the request from the pending count.
    void finish_req(std::size_t s, std::uint64_t g) {
        HelpRecord& rec = record(s);
        for (;;) {
            const std::uint64_t r = rec.req.load(std::memory_order_seq_cst);
            if (req_tag(r) != g || req_state(r) != kStPending) return;
            if (counted_cas(rec.req, r,
                            pack_req(g, req_kind(r), kStDone, req_ticket(r)))) {
                slow_count_.fetch_sub(1, std::memory_order_seq_cst);
                return;
            }
        }
    }

    // Ensure tail > t before an enqueue commit (the slow path performs no
    // tail F&A, but the EMPTY check "tail <= h+1" must stay exact).  False
    // iff the ring closed with its frozen tail at or below t — then the
    // request must resolve as kClosed, never as a published item.
    bool fix_tail(std::uint64_t t) {
        for (;;) {
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            if ((traw & detail::kMsb) != 0) {
                return (traw & detail::kIdxMask) > t;
            }
            if (traw > t) return true;
            if (counted_cas(*tail_, traw, t + 1)) return true;
        }
    }

    // Pull head past a slow-consumed ticket so fast dequeuers do not
    // re-examine it.  Every position the candidate chase skipped was
    // either covered by a fast ticket holder or transformed by the chase
    // itself, so the jump burns no live items.
    void fix_head(std::uint64_t t) {
        for (;;) {
            const std::uint64_t h = head_->load(std::memory_order_seq_cst);
            if (h > t) return;
            if (counted_cas(*head_, h, t + 1)) return;
        }
    }

    // Drive the request in slot s (tag g, kind enqueue) until resolved.
    void help_enqueue(std::size_t s, std::uint64_t g) {
        HelpRecord& rec = record(s);
        for (;;) {
            const std::uint64_t a = rec.arg.load(std::memory_order_seq_cst);
            if (tag_of(a) != g) return;  // request finished and slot reused
            const std::uint64_t pl = payload_of(a);
            if (pl == kClosedPayload) {
                finish_req(s, g);
                return;
            }
            if (pl != kNonePayload) {  // committed at ticket pl
                cleanup_enqueue(pl, s, g);
                finish_req(s, g);
                return;
            }
            const std::uint64_t r = rec.req.load(std::memory_order_seq_cst);
            if (req_tag(r) != g || req_state(r) != kStPending) return;
            const std::uint64_t t = req_ticket(r);
            const std::uint64_t vw = rec.val.load(std::memory_order_seq_cst);
            if (tag_of(vw) != g) return;
            const std::uint64_t v = payload_of(vw);

            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            if ((traw & detail::kMsb) != 0 &&
                (traw & detail::kIdxMask) <= t) {
                counted_cas(rec.arg, a, pack_tagged(g, kClosedPayload));
                continue;
            }

            Entry& entry = entry_at(t);
            const std::uint64_t e = entry.load(std::memory_order_seq_cst);
            if (is_note(e)) {
                if (note_slot(e) == s && note_tag(e) == g &&
                    cycle_of(e) == cycle_of_ticket(t)) {
                    // Our own pending note (its placer may be dead): adopt.
                    if (!fix_tail(t)) {
                        counted_cas(rec.arg, a, pack_tagged(g, kClosedPayload));
                    } else {
                        LCRQ_INJECT_POINT(kWcqBeforeCommit);
                        counted_cas(rec.arg, a, pack_tagged(g, t));
                    }
                    continue;
                }
                resolve_note(remap(t & mask_), e);
                continue;
            }
            if (!enqueue_usable(e, t)) {
                advance_candidate(rec, r, g, next_enq_candidate(t));
                continue;
            }
            if (!counted_cas(entry, e,
                             pack_note(cycle_of_ticket(t), true, kKindEnq, g,
                                       s, v))) {
                continue;  // cell changed: re-examine
            }
            LCRQ_INJECT_POINT(kWcqNotePlaced);
            if (!fix_tail(t)) {
                revert_note(entry, pack_note(cycle_of_ticket(t), true,
                                             kKindEnq, g, s, v));
                counted_cas(rec.arg, a, pack_tagged(g, kClosedPayload));
                continue;
            }
            LCRQ_INJECT_POINT(kWcqBeforeCommit);
            if (counted_cas(rec.arg, a, pack_tagged(g, t))) {
                LCRQ_INJECT_POINT(kWcqCommitted);
                cleanup_enqueue(t, s, g);
                finish_req(s, g);
                return;
            }
            // Lost the commit CAS.  That does NOT make our note a loser: a
            // concurrent helper adopting this very note (or the ticket
            // holder resolving it) may have committed the request at this
            // ticket, and reverting the winning note would unpublish a
            // committed item.  Revert only when the request was decided
            // elsewhere; on pl == t the loop's next pass materializes it.
            // (The wcq_model explorer enumerates the lost-item schedule a
            // blind revert admits; see
            // WcqModel.BlindRevertOfWinningNoteLosesTheItem.)
            const std::uint64_t a2 = rec.arg.load(std::memory_order_seq_cst);
            if (tag_of(a2) != g || payload_of(a2) != t) {
                revert_note(entry, pack_note(cycle_of_ticket(t), true,
                                             kKindEnq, g, s, v));
            }
        }
    }

    // Drive the request in slot s (tag g, kind dequeue) until resolved.
    void help_dequeue(std::size_t s, std::uint64_t g) {
        HelpRecord& rec = record(s);
        for (;;) {
            const std::uint64_t a = rec.arg.load(std::memory_order_seq_cst);
            if (tag_of(a) != g) return;
            const std::uint64_t pl = payload_of(a);
            if (pl == kEmptyPayload) {
                finish_req(s, g);
                return;
            }
            if (pl != kNonePayload) {
                cleanup_dequeue(pl, s, g);
                finish_req(s, g);
                return;
            }
            const std::uint64_t r = rec.req.load(std::memory_order_seq_cst);
            if (req_tag(r) != g || req_state(r) != kStPending) return;
            const std::uint64_t h = req_ticket(r);
            const std::uint64_t hc = cycle_of_ticket(h);

            Entry& entry = entry_at(h);
            const std::uint64_t e = entry.load(std::memory_order_seq_cst);
            if (is_note(e)) {
                if (cycle_of(e) == hc && note_slot(e) == s && note_tag(e) == g &&
                    note_kind(e) == kKindDeq) {
                    // Our own pending note: adopt and try to commit.
                    LCRQ_INJECT_POINT(kWcqBeforeCommit);
                    counted_cas(rec.arg, a, pack_tagged(g, h));
                    continue;
                }
                // Another request's note, or an old cycle's: resolve it.
                resolve_note(remap(h & mask_), e);
                continue;
            }
            if (cycle_of(e) == hc && index_of(e) != bottom_) {
                // A consumable item: reserve it for this request.
                const std::uint64_t noted = pack_note(hc, is_safe(e), kKindDeq,
                                                      g, s, index_of(e));
                if (!counted_cas(entry, e, noted)) continue;
                LCRQ_INJECT_POINT(kWcqNotePlaced);
                LCRQ_INJECT_POINT(kWcqBeforeCommit);
                if (counted_cas(rec.arg, a, pack_tagged(g, h))) {
                    LCRQ_INJECT_POINT(kWcqCommitted);
                    cleanup_dequeue(h, s, g);
                    finish_req(s, g);
                    return;
                }
                // Same caution as the enqueue side: a failed commit CAS
                // may mean a concurrent helper committed *this* note at
                // this ticket — reverting it would both resurrect the item
                // past a fixed head and leave val unpublished.
                const std::uint64_t a2 =
                    rec.arg.load(std::memory_order_seq_cst);
                if (tag_of(a2) != g || payload_of(a2) != h) {
                    revert_note(entry, noted);
                }
                continue;
            }
            // Not consumable right now: perform the ticket holder's
            // transition (so no late enqueue can land behind the chase),
            // then either answer EMPTY or advance the candidate.
            if (cycle_of(e) < hc && !dequeue_transition(entry, e, hc)) continue;
            const std::uint64_t traw = tail_->load(std::memory_order_seq_cst);
            if ((traw & detail::kIdxMask) <= h + 1) {
                catchup(traw, h + 1);
                LCRQ_INJECT_POINT(kWcqBeforeCommit);
                counted_cas(rec.arg, a, pack_tagged(g, kEmptyPayload));
                continue;
            }
            const std::uint64_t hd = head_->load(std::memory_order_seq_cst);
            advance_candidate(rec, r, g, std::max(h + 1, hd));
        }
    }

    void advance_candidate(HelpRecord& rec, std::uint64_t r, std::uint64_t g,
                           std::uint64_t next) {
        assert(next <= kMaxTicket);
        counted_cas(rec.req, r,
                    pack_req(g, req_kind(r), kStPending, next));
    }

    std::uint64_t next_enq_candidate(std::uint64_t t) const {
        const std::uint64_t traw =
            tail_->load(std::memory_order_seq_cst) & detail::kIdxMask;
        return std::max(t + 1, traw);
    }

    // Post-commit cleanup for an enqueue committed at ticket T: turn the
    // winning note into a plain item.  Idempotent — the note pins the
    // cell's cycle until exactly one materialize (or consume) lands.
    void cleanup_enqueue(std::uint64_t T, std::size_t s, std::uint64_t g) {
        Entry& entry = entry_at(T);
        for (;;) {
            const std::uint64_t e = entry.load(std::memory_order_seq_cst);
            if (!is_note(e) || note_slot(e) != s || note_tag(e) != g ||
                cycle_of(e) != cycle_of_ticket(T)) {
                return;  // already materialized (and possibly consumed)
            }
            if (counted_cas(entry, e,
                            pack(cycle_of_ticket(T), is_safe(e), index_of(e)))) {
                rearm_threshold();
                return;
            }
        }
    }

    // Post-commit cleanup for a dequeue committed at ticket T: publish the
    // covered index through val, consume the cell, and pull head past T.
    // The val publication is a CAS from the request's initial (g, NONE)
    // word, not a store: a helper stalled here with the note snapshot in
    // hand must not be able to replay the write after the request is done,
    // the owner has released the record, and the slot carries a fresh
    // request — a blind store would clobber the successor's val.
    void cleanup_dequeue(std::uint64_t T, std::size_t s, std::uint64_t g) {
        Entry& entry = entry_at(T);
        for (;;) {
            const std::uint64_t e = entry.load(std::memory_order_seq_cst);
            if (!is_note(e) || note_slot(e) != s || note_tag(e) != g ||
                cycle_of(e) != cycle_of_ticket(T)) {
                break;  // already consumed; val was published first
            }
            counted_cas(record(s).val, pack_tagged(g, kNonePayload),
                        pack_tagged(g, index_of(e)));
            if (counted_cas(entry, e,
                            pack(cycle_of_ticket(T), is_safe(e), bottom_))) {
                break;
            }
        }
        fix_head(T);
    }

    // A loser note goes back to what the protocol can prove about the
    // cell: an enqueue note becomes an empty cell on the note's cycle (an
    // empty transition — the value was never published), a dequeue note
    // releases the item it covered.
    void revert_note(Entry& entry, std::uint64_t noted) {
        const std::uint64_t c = cycle_of(noted);
        const bool safe = is_safe(noted);
        const std::uint64_t back = note_kind(noted) == kKindEnq
                                       ? pack(c, safe, bottom_)
                                       : pack(c, safe, index_of(noted));
        counted_cas(entry, noted, back);
    }

    // Drive a note found in cell u to a decision.  Sound because a note
    // carries its full request identity (slot, 16-bit tag): if the slot's
    // record has moved past tag g the request finished — and a finished
    // request's *winning* note was materialized before its done
    // transition, so any surviving note is a loser and can be reverted.
    // While the record still shows (g, pending), the note may yet win, so
    // the resolver commits the request itself rather than guessing.
    void resolve_note(std::uint64_t u, std::uint64_t e) {
        const std::size_t s = note_slot(e);
        const std::uint64_t g = note_tag(e);
        const std::uint64_t t = ticket_of(u, cycle_of(e));
        HelpRecord& rec = record(s);
        Entry& entry = entries_[u];
        for (;;) {
            if (entry.load(std::memory_order_seq_cst) != e) return;
            const std::uint64_t r = rec.req.load(std::memory_order_seq_cst);
            if (req_tag(r) != g) {
                revert_note(entry, e);  // request long gone: loser
                return;
            }
            const std::uint64_t a = rec.arg.load(std::memory_order_seq_cst);
            if (tag_of(a) != g) {
                revert_note(entry, e);
                return;
            }
            const std::uint64_t pl = payload_of(a);
            if (pl == kNonePayload) {
                // Undecided: decide it here, in favour of this note.
                if (note_kind(e) == kKindEnq && !fix_tail(t)) {
                    counted_cas(rec.arg, a, pack_tagged(g, kClosedPayload));
                } else {
                    counted_cas(rec.arg, a, pack_tagged(g, t));
                }
                continue;  // re-read the (now decided) arg
            }
            if (pl == t) {
                if (note_kind(e) == kKindEnq) {
                    cleanup_enqueue(t, s, g);
                } else {
                    cleanup_dequeue(t, s, g);
                }
                finish_req(s, g);
            } else {
                revert_note(entry, e);  // committed elsewhere: loser
            }
            return;
        }
    }

    WcqConfig cfg_;
    std::atomic<std::uint64_t> slow_count_{0};
    alignas(kDestructivePairSize) HelpRecord records_[kWcqSlots];
};

// The wCQ value queue and its bounded registry queue ("wcq"): scq.hpp's
// templates over WcqRing.  They carry no bulk operations (ScqBatchRing).
template <class Faa = HardwareFaa>
using Wcq = ScqValueQueue<WcqRing<Faa>>;

using WcqQueue = BasicScqQueue<WcqRing<HardwareFaa>>;

}  // namespace lcrq
