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
#pragma once

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

}  // namespace lcrq::verify
