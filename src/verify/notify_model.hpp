// Step model of the facade's notify handshake, with an exhaustive
// explorer.
//
// The blocking facade's EventCount (queues/blocking_queue.hpp) parks two
// kinds of waiter — sleeping threads on a futex epoch, suspended coroutine
// frames on a stack — and lets a notifier skip the epoch bump and the
// wakes when nobody is registered.  Each exploration is one waiter of one
// kind against the one notifier, each a straight-line script of atomic
// steps, run under sequential consistency — the seq_cst fences in the
// real code are what make SC the right model for these steps.  The
// explorer runs every interleaving and checks the one property the
// handshake exists for: no schedule ends with the waiter parked while an
// item is available.
//
//   thread waiter: register; e = epoch; re-check (take the item if
//                  present); sleep if epoch == e (FUTEX_WAIT's atomic
//                  compare-and-sleep)
//   frame waiter:  register; e = epoch; re-check; push its node; park
//                  unless epoch != e (the fence, the re-read and the abort
//                  CAS) or the node was already popped (which resumes it)
//   notifier:      publish; read the registration word; if anyone is
//                  registered: bump; then wake a registered thread and pop
//                  the frame stack for a registered frame
//
// Mutants reorder or drop one step so tests can show the check has teeth:
// a notifier that reads the registrations before it publishes, a waiter
// that reads the epoch after its re-check, and a frame that parks without
// registering.
//
// The spin token (one spinner per facade) gets a model of its own below:
// a holder, a standby and a notifier whose admits wake nobody the standby
// sleeps on.  The standby loops, so that explorer walks the state graph
// instead of schedules.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lcrq::verify {

enum class NotifyMutant : std::uint8_t {
    kNone,
    kCountBeforePublish,  // notifier: read the registrations, then publish
    kEpochAfterRecheck,   // waiter: re-check, then read the epoch
    kUnregisteredFrame,   // frame waiter: push and park without registering
};

enum class WaiterKind : std::uint8_t { kThread, kFrame };

struct NotifyModelState {
    bool item = false;  // published and not yet taken
    std::uint32_t threads = 0;  // registration word, low half
    std::uint32_t frames = 0;   // registration word, high half
    std::uint32_t epoch = 0;
    bool node_pushed = false;  // frame: its node is on the stack
    bool node_popped = false;  // frame: the notifier took it off
    bool asleep = false;       // waiter parked and not yet woken
    bool slept = false;        // waiter parked at some point
    bool bumped = false;       // notifier advanced the epoch
    // Thread locals.
    std::uint32_t observed = 0;      // waiter's epoch snapshot
    std::uint32_t seen_threads = 0;  // notifier's registration read
    std::uint32_t seen_frames = 0;
};

struct NotifyExploreResult {
    std::uint64_t schedules = 0;
    std::uint64_t violations = 0;
    std::uint64_t sleeps = 0;  // schedules in which the waiter parked
    std::uint64_t skips = 0;   // schedules in which the notifier did not bump
    std::string first_violation;

    bool ok() const noexcept { return violations == 0; }
};

namespace detail_notify {

// One atomic step; returns true when it ends its thread's script early
// (an item taken, a park done or aborted).
struct Step {
    const char* name;
    bool (*run)(NotifyModelState&);
};

inline bool take_if_present(NotifyModelState& s) {
    if (!s.item) return false;
    s.item = false;
    return true;
}

inline std::vector<Step> waiter(WaiterKind kind, NotifyMutant m) {
    std::vector<Step> steps;
    if (kind == WaiterKind::kThread) {
        steps.push_back({"register", [](NotifyModelState& s) {
                             ++s.threads;
                             return false;
                         }});
    } else if (m != NotifyMutant::kUnregisteredFrame) {
        steps.push_back({"register", [](NotifyModelState& s) {
                             ++s.frames;
                             return false;
                         }});
    }
    const Step read_epoch{"read_epoch", [](NotifyModelState& s) {
                              s.observed = s.epoch;
                              return false;
                          }};
    const Step recheck{"recheck", take_if_present};
    if (m == NotifyMutant::kEpochAfterRecheck) {
        steps.insert(steps.end(), {recheck, read_epoch});
    } else {
        steps.insert(steps.end(), {read_epoch, recheck});
    }
    if (kind == WaiterKind::kThread) {
        steps.push_back({"sleep", [](NotifyModelState& s) {
                             if (s.epoch == s.observed) s.asleep = s.slept = true;
                             return true;
                         }});
    } else {
        steps.push_back({"push", [](NotifyModelState& s) {
                             s.node_pushed = true;
                             return false;
                         }});
        steps.push_back({"park", [](NotifyModelState& s) {
                             if (s.epoch == s.observed && !s.node_popped) {
                                 s.asleep = s.slept = true;
                             }
                             return true;
                         }});
    }
    return steps;
}

inline std::vector<Step> notifier(NotifyMutant m) {
    const Step publish{"publish", [](NotifyModelState& s) {
                           s.item = true;
                           return false;
                       }};
    const Step read_registrations{"read_registrations", [](NotifyModelState& s) {
                                      s.seen_threads = s.threads;
                                      s.seen_frames = s.frames;
                                      return false;
                                  }};
    const Step bump{"bump", [](NotifyModelState& s) {
                        if (s.seen_threads + s.seen_frames != 0) {
                            ++s.epoch;
                            s.bumped = true;
                        }
                        return false;
                    }};
    // The futex wake for a registered thread, then (after the fence) the
    // pop of the frame stack for a registered frame.
    const Step wake{"wake", [](NotifyModelState& s) {
                        if (s.seen_threads != 0) s.asleep = false;
                        if (s.seen_frames != 0 && s.node_pushed && !s.node_popped) {
                            s.node_popped = true;
                            s.asleep = false;
                        }
                        return true;
                    }};
    if (m == NotifyMutant::kCountBeforePublish) return {read_registrations, publish, bump, wake};
    return {publish, read_registrations, bump, wake};
}

struct Explorer {
    std::vector<Step> waiter, notifier;
    NotifyExploreResult out;
    std::vector<std::string> trace;

    void run(const NotifyModelState& s, std::size_t w, std::size_t n) {
        const bool w_done = w >= waiter.size();
        const bool n_done = n >= notifier.size();
        if (w_done && n_done) {
            finish(s);
            return;
        }
        if (!w_done) step(s, waiter, w, n, true);
        if (!n_done) step(s, notifier, w, n, false);
    }

    void step(const NotifyModelState& s, const std::vector<Step>& script, std::size_t w,
              std::size_t n, bool is_waiter) {
        NotifyModelState next = s;
        const std::size_t pc = is_waiter ? w : n;
        const bool ends = script[pc].run(next);
        const std::size_t after = ends ? script.size() : pc + 1;
        trace.push_back(std::string(is_waiter ? "W:" : "N:") + script[pc].name);
        run(next, is_waiter ? after : w, is_waiter ? n : after);
        trace.pop_back();
    }

    void finish(const NotifyModelState& s) {
        ++out.schedules;
        if (s.slept) ++out.sleeps;
        if (!s.bumped) ++out.skips;
        if (s.asleep && s.item) {
            if (out.violations++ == 0) {
                out.first_violation = "waiter parked with an item available:";
                for (const std::string& t : trace) out.first_violation += " " + t;
            }
        }
    }
};

}  // namespace detail_notify

// Every interleaving of one waiter of `kind` and the notifier.
inline NotifyExploreResult explore_handshake(WaiterKind kind,
                                             NotifyMutant m = NotifyMutant::kNone) {
    detail_notify::Explorer e{detail_notify::waiter(kind, m), detail_notify::notifier(m),
                              {}, {}};
    e.run(NotifyModelState{}, 0, 0);
    return e.out;
}

// --- the spin token ----------------------------------------------------------
//
// BlockingQueue lets only the waiter holding the spin token spin; the
// others stand by on an eventcount that no admit signals, each slice
// ending in a peek.  Three roles, each step atomic under SC:
//
//   holder H:   owns the token (its window open) at the start; spins on
//               the peek, dequeues, and leaves with the first item it
//               gets; one window later its stamp is stale
//   standby S:  a consumer that calls again after every item: dequeue;
//               on a miss claim the token (its own, or H's stale one) and
//               spin on the peek, or else stand by: sleep a slice, then
//               return to the dequeue when the peek shows items or the
//               token is open, and sleep again otherwise
//   notifier N: publishes two items; its signal reaches only the items
//               eventcount, which nobody here sleeps on
//
// S's loop is unbounded, so the explorer walks the state graph (each
// state once) and checks liveness: from every reachable state some
// schedule still publishes and takes every item.  With no admit waking
// S, its own peek and the stale stamp are all that can deliver to it.
// The mutant drops both: its standby goes back to sleep whenever the
// token names another thread, without peeking.

enum class TokenMutant : std::uint8_t {
    kNone,
    kReparkOnHeldToken,  // standby: re-park while the token names another
};

struct TokenModelState {
    std::uint8_t published = 0;     // items N has published, 0..2
    std::uint8_t queued = 0;        // published and not yet taken
    std::uint8_t holder = 0;        // H's phase (detail_token::Holder)
    std::uint8_t standby = 0;       // S's phase (detail_token::Standby)
    bool standby_owns = false;      // the token names S (else H)

    std::uint32_t code() const noexcept {
        return static_cast<std::uint32_t>(published | queued << 2 | holder << 4 |
                                          standby << 6 | (standby_owns ? 1 << 8 : 0));
    }
    static TokenModelState decode(std::uint32_t c) noexcept {
        return {static_cast<std::uint8_t>(c & 3), static_cast<std::uint8_t>(c >> 2 & 3),
                static_cast<std::uint8_t>(c >> 4 & 3), static_cast<std::uint8_t>(c >> 6 & 3),
                (c >> 8 & 1) != 0};
    }
    bool every_item_taken() const noexcept { return published == 2 && queued == 0; }
};

struct TokenExploreResult {
    std::uint64_t states = 0;       // reachable states
    std::uint64_t transitions = 0;  // enabled steps out of them
    std::uint64_t violations = 0;   // states from which no schedule takes every item
    std::uint64_t peek_wakes = 0;   // steps: S's slice ended with its peek seeing items
    std::uint64_t takeovers = 0;    // steps: S claimed the token from the stale H
    std::string first_violation;

    bool ok() const noexcept { return violations == 0; }
};

namespace detail_token {

enum Holder : std::uint8_t { kHolderSpins, kHolderDequeues, kHolderLeft, kHolderStale };
enum Standby : std::uint8_t { kStandbyDequeues, kStandbyClaims, kStandbyParked, kStandbySpins };

constexpr std::uint32_t kCodes = 1u << 9;

enum class Edge : std::uint8_t { kPlain, kPeekWake, kTakeover };

// Call emit(name, next, edge) for every step enabled in `s`.  A spinner's
// peek is a guarded step: it fires only when items show.
template <typename Emit>
void successors(const TokenModelState& s, TokenMutant m, Emit&& emit) {
    if (s.published < 2) {
        TokenModelState n = s;
        ++n.published;
        ++n.queued;
        emit("N:publish", n, Edge::kPlain);
    }

    TokenModelState n = s;
    switch (s.holder) {
        case kHolderSpins:
            if (s.queued > 0) {
                n.holder = kHolderDequeues;
                emit("H:peek", n, Edge::kPlain);
            }
            break;
        case kHolderDequeues:
            if (n.queued > 0) {
                --n.queued;
                n.holder = kHolderLeft;
            } else {
                n.holder = kHolderSpins;
            }
            emit("H:dequeue", n, Edge::kPlain);
            break;
        case kHolderLeft:
            n.holder = kHolderStale;
            emit("H:stamp_stale", n, Edge::kPlain);
            break;
        default:
            break;
    }

    n = s;
    const bool open = s.standby_owns || s.holder == kHolderStale;
    switch (s.standby) {
        case kStandbyDequeues:
            if (n.queued > 0) {
                --n.queued;
            } else {
                n.standby = kStandbyClaims;
            }
            emit("S:dequeue", n, Edge::kPlain);
            break;
        case kStandbyClaims:
            n.standby = open ? kStandbySpins : kStandbyParked;
            n.standby_owns = s.standby_owns || open;
            emit(open ? "S:claim" : "S:stand_by", n,
                 open && !s.standby_owns ? Edge::kTakeover : Edge::kPlain);
            break;
        case kStandbyParked: {
            Edge e = Edge::kPlain;
            if (m == TokenMutant::kReparkOnHeldToken) {
                if (s.standby_owns) n.standby = kStandbyDequeues;
            } else if (s.queued > 0) {
                n.standby = kStandbyDequeues;
                e = Edge::kPeekWake;
            } else if (open) {
                n.standby = kStandbyDequeues;
            }
            emit("S:slice_end", n, e);
            break;
        }
        case kStandbySpins:
            if (s.queued > 0) {
                n.standby = kStandbyDequeues;
                emit("S:peek", n, Edge::kPlain);
            }
            break;
        default:
            break;
    }
}

}  // namespace detail_token

// Every reachable state of the holder, the standby and the notifier.
inline TokenExploreResult explore_spin_token(TokenMutant m = TokenMutant::kNone) {
    using namespace detail_token;
    constexpr std::uint32_t kNone = ~0u;
    std::array<std::uint32_t, kCodes> parent;
    std::array<const char*, kCodes> via{};
    parent.fill(kNone);
    std::vector<std::uint32_t> order;
    std::vector<std::vector<std::uint32_t>> preds(kCodes);
    TokenExploreResult out;

    const std::uint32_t start = TokenModelState{}.code();
    parent[start] = start;
    order.push_back(start);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint32_t c = order[i];
        successors(TokenModelState::decode(c), m,
                   [&](const char* name, const TokenModelState& next, Edge e) {
                       const std::uint32_t nc = next.code();
                       ++out.transitions;
                       if (e == Edge::kPeekWake) ++out.peek_wakes;
                       if (e == Edge::kTakeover) ++out.takeovers;
                       preds[nc].push_back(c);
                       if (parent[nc] != kNone) return;
                       parent[nc] = c;
                       via[nc] = name;
                       order.push_back(nc);
                   });
    }
    out.states = order.size();

    // Backward from the states where every item is taken.
    std::array<bool, kCodes> live{};
    std::vector<std::uint32_t> work;
    for (const std::uint32_t c : order) {
        if (TokenModelState::decode(c).every_item_taken()) {
            live[c] = true;
            work.push_back(c);
        }
    }
    while (!work.empty()) {
        const std::uint32_t c = work.back();
        work.pop_back();
        for (const std::uint32_t p : preds[c]) {
            if (!live[p]) {
                live[p] = true;
                work.push_back(p);
            }
        }
    }
    for (const std::uint32_t c : order) {
        if (live[c]) continue;
        if (out.violations++ != 0) continue;
        std::vector<const char*> path;
        for (std::uint32_t at = c; at != start; at = parent[at]) path.push_back(via[at]);
        out.first_violation = "no schedule takes every item after:";
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
            out.first_violation += std::string(" ") + *it;
        }
    }
    return out;
}

}  // namespace lcrq::verify
