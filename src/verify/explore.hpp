// Schedule exploration over the step models: CRQ (crq_model.hpp), LCRQ
// (lcrq_model.hpp), the infinite array (infinite_array_model.hpp), and the
// SCQ family (scq_model.hpp, wcq_model.hpp).
//
// Each thread runs a script of queue operations; the explorer drives the
// step machines under (a) every possible interleaving, depth-first, for
// tiny configurations, or (b) uniformly random interleavings for larger
// ones.  Every completed execution yields a history with step-counter
// timestamps, which is checked with the exact linearizability checker
// plus the tantrum rule (no enqueue that starts after a CLOSED response
// may succeed — applicable to the bare-CRQ family).
//
// This is the executable counterpart of the paper's §4.1.2 proof: instead
// of trusting that the safe-bit protocol covers all interleavings, the
// tiny-configuration tests *enumerate* them.  The LCRQ family additionally
// demonstrates the December-2013 correction: with `corrected = false` the
// explorer finds the proceedings version's lost-item schedules (and, for
// the wCQ family, those of a blind note revert).
#pragma once

#include <string>
#include <vector>

#include "util/xorshift.hpp"
#include "verify/crq_model.hpp"
#include "verify/infinite_array_model.hpp"
#include "verify/lcrq_model.hpp"
#include "verify/lin_check.hpp"
#include "verify/scq_model.hpp"
#include "verify/wcq_model.hpp"

namespace lcrq::verify {

struct ScriptOp {
    CrqModelOp::Kind kind;
    value_t arg = 0;
};
using ThreadScript = std::vector<ScriptOp>;

inline ScriptOp enq_op(value_t v) { return {CrqModelOp::Kind::kEnqueue, v}; }
inline ScriptOp deq_op() { return {CrqModelOp::Kind::kDequeue, 0}; }

struct ExploreConfig {
    std::uint64_t ring_size = 2;
    unsigned starvation_limit = 2;
    // LCRQ family: include the December-2013 second-dequeue fix?
    // wCQ family: re-check arg before reverting a note whose commit CAS
    // lost (false = blind revert, which loses items; wcq_model.hpp).
    bool corrected = true;
    // wCQ family: failed fast-path rounds before an op publishes a
    // helping request.  Low values route the explorer into the slow path.
    unsigned wcq_patience = 1;
    // wCQ family: start with the threshold armed (the state after a prior
    // enqueue/dequeue pair), so script dequeuers can race the first
    // enqueue's cell instead of serializing behind the threshold gate.
    bool wcq_armed = false;
    // Exhaustive mode aborts (reporting truncated=true) past this many
    // completed schedules; random mode runs exactly `samples` schedules.
    std::uint64_t max_schedules = 5'000'000;
    // Schedules longer than this are pruned unchecked (counted in
    // `pruned`).  Needed because some modeled algorithms can livelock —
    // the infinite-array queue genuinely does (the paper says so; the
    // explorer would otherwise recurse down those branches forever).
    std::uint64_t max_steps = 400;
    std::uint64_t samples = 10'000;
    std::uint64_t seed = 1;
};

struct ExploreResult {
    std::uint64_t schedules = 0;
    std::uint64_t violations = 0;
    bool truncated = false;  // exhaustive hit max_schedules
    std::string first_error;

    // Coverage across all explored schedules (see CrqModelState counters).
    std::uint64_t unsafe_transitions = 0;
    std::uint64_t empty_transitions = 0;
    std::uint64_t closes = 0;
    std::uint64_t enq_rescues = 0;
    std::uint64_t appended_segments = 0;  // LCRQ family only
    std::uint64_t catchups = 0;           // SCQ family only: tail repairs
    std::uint64_t threshold_empties = 0;  // SCQ family only: EMPTY via threshold
    std::uint64_t slow_publishes = 0;     // wCQ family: requests published
    std::uint64_t notes_placed = 0;       // wCQ family: reservations landed
    std::uint64_t note_commits = 0;       // wCQ family: ticket commits on arg
    std::uint64_t note_reverts = 0;       // wCQ family: loser notes taken back
    std::uint64_t empty_commits = 0;      // wCQ family: EMPTY commits on arg
    std::uint64_t pruned = 0;             // schedules cut at max_steps

    bool ok() const noexcept { return violations == 0 && !truncated; }

    // One-line budget/coverage digest for failure messages.  A plain
    // "violations == 0" pass can silently mean "explored almost nothing"
    // when the budget truncated the enumeration or max_steps pruned the
    // interesting branches — surface both so a failing (or vacuous) run
    // says which budget to raise.
    std::string summary() const {
        std::string s = "schedules=" + std::to_string(schedules) +
                        " violations=" + std::to_string(violations) +
                        " pruned=" + std::to_string(pruned);
        if (truncated) s += " TRUNCATED(hit max_schedules)";
        if (!first_error.empty()) s += " first_error=\"" + first_error + "\"";
        return s;
    }
};

// --- model families --------------------------------------------------------

struct CrqFamily {
    using State = CrqModelState;
    using Op = CrqModelOp;

    static State make_state(const ExploreConfig& cfg) { return State(cfg.ring_size); }
    static Op make_op(const ScriptOp& s, const ExploreConfig& cfg) {
        return make_model_op(s.kind, s.arg, cfg.starvation_limit);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        out.unsafe_transitions += s.unsafe_transitions;
        out.empty_transitions += s.empty_transitions;
        out.closes += s.closes;
        out.enq_rescues += s.enq_rescues;
    }
};

struct LcrqFamily {
    using State = LcrqModelState;
    using Op = LcrqModelOp;

    static State make_state(const ExploreConfig& cfg) { return State(cfg.ring_size); }
    static Op make_op(const ScriptOp& s, const ExploreConfig& cfg) {
        return make_lcrq_model_op(s.kind, s.arg, cfg.starvation_limit, cfg.corrected);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        for (const auto& seg : s.segments) {
            out.unsafe_transitions += seg.unsafe_transitions;
            out.empty_transitions += seg.empty_transitions;
            out.enq_rescues += seg.enq_rescues;
        }
        out.closes += s.total_closes();
        out.appended_segments += s.appended_segments();
    }
};

struct ScqFamily {
    using State = ScqModelState;
    using Op = ScqModelOp;

    // cfg.ring_size is the SCQ *capacity* n (the modeled ring has 2n
    // entries), so CRQ and SCQ configs describe the same logical size.
    static State make_state(const ExploreConfig& cfg) { return State(cfg.ring_size); }
    static Op make_op(const ScriptOp& s, const ExploreConfig&) {
        return make_scq_model_op(s.kind, s.arg);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        out.unsafe_transitions += s.unsafe_transitions;
        out.empty_transitions += s.empty_transitions;
        out.enq_rescues += s.enq_rescues;
        out.catchups += s.catchups;
        out.threshold_empties += s.threshold_empties;
    }
};

struct WcqFamily {
    using State = WcqModelState;
    using Op = WcqModelOp;

    // cfg.ring_size is the capacity n (2n modeled entries), as for SCQ.
    static State make_state(const ExploreConfig& cfg) {
        return State(cfg.ring_size, cfg.wcq_armed);
    }
    static Op make_op(const ScriptOp& s, const ExploreConfig& cfg) {
        return make_wcq_model_op(s.kind, s.arg, cfg.wcq_patience, cfg.corrected);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        ScqFamily::accumulate(s, out);
        out.slow_publishes += s.slow_publishes;
        out.notes_placed += s.notes_placed;
        out.note_commits += s.note_commits;
        out.note_reverts += s.note_reverts;
        out.empty_commits += s.empty_commits;
    }
};

struct InfArrayFamily {
    using State = InfArrayModelState;
    using Op = InfArrayModelOp;

    static State make_state(const ExploreConfig&) { return State{}; }
    static Op make_op(const ScriptOp& s, const ExploreConfig&) {
        return Op(s.kind, s.arg);
    }
    static void accumulate(const State&, ExploreResult&) {}
};

namespace detail_explore {

template <typename Family>
struct World {
    typename Family::State shared;
    struct Thread {
        const ThreadScript* script;
        std::size_t next_op = 0;
        typename Family::Op op;
        bool active = false;
        std::uint64_t invoke = 0;

        explicit Thread(typename Family::Op initial) : op(initial) {}
    };
    std::vector<Thread> threads;
    History history;
    std::uint64_t step_count = 0;

    World(const std::vector<ThreadScript>& scripts, const ExploreConfig& cfg)
        : shared(Family::make_state(cfg)) {
        for (std::size_t i = 0; i < scripts.size(); ++i) {
            // Placeholder op; replaced at activation.
            threads.push_back(Thread(Family::make_op(enq_op(0), cfg)));
            threads.back().script = &scripts[i];
        }
    }

    bool runnable(std::size_t i) const {
        const Thread& t = threads[i];
        return t.active || t.next_op < t.script->size();
    }

    bool all_done() const {
        for (std::size_t i = 0; i < threads.size(); ++i) {
            if (runnable(i)) return false;
        }
        return true;
    }

    void step(std::size_t i, const ExploreConfig& cfg) {
        Thread& t = threads[i];
        ++step_count;
        if (!t.active) {
            t.op = Family::make_op((*t.script)[t.next_op], cfg);
            t.active = true;
            t.invoke = step_count;
        }
        if (t.op.step(shared) == CrqModelOp::Status::kDone) {
            t.active = false;
            ++t.next_op;
            Operation rec;
            rec.thread = static_cast<int>(i);
            rec.invoke = t.invoke;
            rec.response = step_count;
            rec.kind = t.op.kind() == CrqModelOp::Kind::kEnqueue
                           ? Operation::Kind::kEnqueue
                           : Operation::Kind::kDequeue;
            rec.value = t.op.result();
            history.push_back(rec);
        }
    }
};

// Validate one completed execution: tantrum rule + exact linearizability
// of the FIFO part (CLOSED enqueues removed — they enqueue nothing).
inline CheckResult check_execution(const History& full) {
    std::uint64_t first_closed_response = ~std::uint64_t{0};
    for (const auto& op : full) {
        if (op.kind == Operation::Kind::kEnqueue &&
            op.value == CrqModelOp::kClosedResult) {
            first_closed_response = std::min(first_closed_response, op.response);
        }
    }
    History fifo;
    for (const auto& op : full) {
        if (op.kind == Operation::Kind::kEnqueue) {
            if (op.value == CrqModelOp::kClosedResult) continue;
            if (op.invoke > first_closed_response) {
                return {false, "tantrum violation: enqueue succeeded after CLOSED"};
            }
        }
        fifo.push_back(op);
    }
    return check_queue_exact(fifo);
}

template <typename Family>
void finish_schedule(const World<Family>& world, ExploreResult& out,
                     const ExploreConfig& cfg) {
    ++out.schedules;
    if (out.schedules >= cfg.max_schedules) out.truncated = true;
    Family::accumulate(world.shared, out);
    const CheckResult r = check_execution(world.history);
    if (!r.ok) {
        ++out.violations;
        if (out.first_error.empty()) out.first_error = r.error;
    }
}

template <typename Family>
void explore_dfs(World<Family> world, const ExploreConfig& cfg, ExploreResult& out) {
    if (out.truncated) return;
    if (world.all_done()) {
        finish_schedule(world, out, cfg);
        return;
    }
    if (world.step_count >= cfg.max_steps) {
        ++out.pruned;  // livelocked (or merely very long) branch
        return;
    }
    for (std::size_t i = 0; i < world.threads.size(); ++i) {
        if (out.truncated) return;
        if (!world.runnable(i)) continue;
        World<Family> branch = world;  // copy-on-branch: states are tiny
        branch.step(i, cfg);
        explore_dfs(std::move(branch), cfg, out);
    }
}

template <typename Family>
ExploreResult run_exhaustive(const std::vector<ThreadScript>& scripts,
                             const ExploreConfig& cfg) {
    ExploreResult out;
    World<Family> world(scripts, cfg);
    explore_dfs(std::move(world), cfg, out);
    return out;
}

template <typename Family>
ExploreResult run_random(const std::vector<ThreadScript>& scripts,
                         const ExploreConfig& cfg) {
    ExploreResult out;
    Xoshiro256 rng(cfg.seed);
    std::vector<std::size_t> runnable;
    for (std::uint64_t s = 0; s < cfg.samples; ++s) {
        World<Family> world(scripts, cfg);
        bool overlong = false;
        while (!world.all_done()) {
            if (world.step_count >= cfg.max_steps) {
                overlong = true;
                break;
            }
            runnable.clear();
            for (std::size_t i = 0; i < world.threads.size(); ++i) {
                if (world.runnable(i)) runnable.push_back(i);
            }
            world.step(runnable[rng.bounded(runnable.size())], cfg);
        }
        if (overlong) {
            ++out.pruned;
            continue;
        }
        finish_schedule(world, out, cfg);
    }
    out.truncated = false;  // sampling has no exhaustive budget
    return out;
}

}  // namespace detail_explore

// --- public entry points ----------------------------------------------------

// Enumerate every interleaving (small configs only: the schedule count is
// combinatorial in total steps).
inline ExploreResult explore_exhaustive(const std::vector<ThreadScript>& scripts,
                                        const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<CrqFamily>(scripts, cfg);
}

// Sample `cfg.samples` uniformly random schedules.
inline ExploreResult explore_random(const std::vector<ThreadScript>& scripts,
                                    const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<CrqFamily>(scripts, cfg);
}

// Figure 2 infinite-array queue (the paper omits its proof; footnote 4).
inline ExploreResult explore_infarray_exhaustive(
    const std::vector<ThreadScript>& scripts, const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<InfArrayFamily>(scripts, cfg);
}

inline ExploreResult explore_infarray_random(const std::vector<ThreadScript>& scripts,
                                             const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<InfArrayFamily>(scripts, cfg);
}

// SCQ ring (cycle/safe/threshold protocol; scq_model.hpp).  Keep ring
// occupancy (live items + in-flight enqueues) ≤ cfg.ring_size — easiest
// via total enqueues ≤ capacity.  Overfilled rings burn enqueue tickets
// by design (pruned schedules) and can exhaust the threshold into a
// false EMPTY the checker rightly flags; see the scq_model.hpp caveat.
inline ExploreResult explore_scq_exhaustive(const std::vector<ThreadScript>& scripts,
                                            const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<ScqFamily>(scripts, cfg);
}

inline ExploreResult explore_scq_random(const std::vector<ThreadScript>& scripts,
                                        const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<ScqFamily>(scripts, cfg);
}

// wCQ ring (SCQ protocol + helping slow path; wcq_model.hpp).  Same
// occupancy caveat as the SCQ ring.  cfg.wcq_patience routes ops into the
// slow path; cfg.corrected = false reproduces the blind-revert lost-item
// schedules on the commit word.
inline ExploreResult explore_wcq_exhaustive(const std::vector<ThreadScript>& scripts,
                                            const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<WcqFamily>(scripts, cfg);
}

inline ExploreResult explore_wcq_random(const std::vector<ThreadScript>& scripts,
                                        const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<WcqFamily>(scripts, cfg);
}

// LCRQ-layer variants (unbounded queue over CRQ segments).
inline ExploreResult explore_lcrq_exhaustive(const std::vector<ThreadScript>& scripts,
                                             const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<LcrqFamily>(scripts, cfg);
}

inline ExploreResult explore_lcrq_random(const std::vector<ThreadScript>& scripts,
                                         const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<LcrqFamily>(scripts, cfg);
}

}  // namespace lcrq::verify
