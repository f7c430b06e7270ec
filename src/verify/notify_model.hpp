// Step model of the facades' notify handshakes, with an exhaustive
// explorer.
//
// The blocking facade (queues/blocking_queue.hpp, EventCount) parks a
// waiter on a futex epoch and lets a notifier skip the epoch bump when no
// waiter is registered; the coroutine facade (queues/async_queue.hpp)
// parks awaiters on a stack they push without registering, so its wakers
// bump the epoch themselves.  Each pair is one waiter and one notifier,
// each a straight-line script of atomic steps, run under sequential
// consistency — the seq_cst fences in the real code are what make SC the
// right model for these steps.  The explorer runs every interleaving and
// checks the one property the handshake exists for: no schedule ends with
// the waiter asleep while an item is available.
//
//   blocking waiter:   announce; e = epoch; re-check (take the item if
//                      present); sleep if epoch == e (FUTEX_WAIT's atomic
//                      compare-and-sleep)
//   blocking notifier: publish; n = waiter count; if n: bump; if n: wake
//   async awaiter:     e = epoch; check (take the item if present); push
//                      its node; park unless epoch != e (or the node was
//                      already popped, which resumes it)
//   async waker:       publish; bump; pop the stack (resuming what it took)
//
// Mutants reorder or drop one step so tests can show the check has teeth:
// a notifier that reads the waiter count before it publishes, a waiter
// that reads the epoch after its re-check, and an async waker that skips
// its bump.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lcrq::verify {

enum class NotifyMutant : std::uint8_t {
    kNone,
    kCountBeforePublish,  // blocking notifier: read waiters, then publish
    kEpochAfterRecheck,   // blocking waiter: re-check, then read the epoch
    kAsyncSkipBump,       // async waker: publish and pop, no bump
};

struct NotifyModelState {
    bool item = false;  // published and not yet taken
    std::uint32_t waiters = 0;
    std::uint32_t epoch = 0;
    bool node_pushed = false;  // async: the awaiter's node is on the stack
    bool node_popped = false;  // async: a waker took it off
    bool asleep = false;       // waiter parked and not yet woken
    bool slept = false;        // waiter parked at some point
    bool bumped = false;       // notifier advanced the epoch
    // Thread locals.
    std::uint32_t observed = 0;  // waiter's epoch snapshot
    std::uint32_t seen = 0;      // notifier's waiter-count read
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
// (an item taken, a park aborted).
struct Step {
    const char* name;
    bool (*run)(NotifyModelState&);
};

inline bool publish(NotifyModelState& s) {
    s.item = true;
    return false;
}
inline bool take_if_present(NotifyModelState& s) {
    if (!s.item) return false;
    s.item = false;
    return true;
}
inline bool wake(NotifyModelState& s) {
    s.asleep = false;
    return false;
}

inline std::vector<Step> blocking_waiter(NotifyMutant m) {
    const Step announce{"announce", [](NotifyModelState& s) {
                            ++s.waiters;
                            return false;
                        }};
    const Step read_epoch{"read_epoch", [](NotifyModelState& s) {
                              s.observed = s.epoch;
                              return false;
                          }};
    const Step recheck{"recheck", take_if_present};
    const Step sleep{"sleep", [](NotifyModelState& s) {
                         if (s.epoch == s.observed) s.asleep = s.slept = true;
                         return true;
                     }};
    if (m == NotifyMutant::kEpochAfterRecheck) return {announce, recheck, read_epoch, sleep};
    return {announce, read_epoch, recheck, sleep};
}

inline std::vector<Step> blocking_notifier(NotifyMutant m) {
    const Step pub{"publish", publish};
    const Step read_waiters{"read_waiters", [](NotifyModelState& s) {
                                s.seen = s.waiters;
                                return false;
                            }};
    const Step bump{"bump", [](NotifyModelState& s) {
                        if (s.seen != 0) {
                            ++s.epoch;
                            s.bumped = true;
                        }
                        return false;
                    }};
    const Step wake_step{"wake", [](NotifyModelState& s) {
                             if (s.seen != 0) wake(s);
                             return true;
                         }};
    if (m == NotifyMutant::kCountBeforePublish) return {read_waiters, pub, bump, wake_step};
    return {pub, read_waiters, bump, wake_step};
}

inline std::vector<Step> async_awaiter() {
    return {
        {"read_epoch",
         [](NotifyModelState& s) {
             s.observed = s.epoch;
             return false;
         }},
        {"check", take_if_present},
        {"push",
         [](NotifyModelState& s) {
             s.node_pushed = true;
             return false;
         }},
        // The fence, the epoch re-read and the state CAS: a moved epoch
        // aborts the park, an already-popped node is resumed by its waker.
        {"park",
         [](NotifyModelState& s) {
             if (s.epoch == s.observed && !s.node_popped) s.asleep = s.slept = true;
             return true;
         }},
    };
}

inline std::vector<Step> async_waker(NotifyMutant m) {
    std::vector<Step> steps{{"publish", publish}};
    if (m != NotifyMutant::kAsyncSkipBump) {
        steps.push_back({"bump", [](NotifyModelState& s) {
                             ++s.epoch;
                             s.bumped = true;
                             return false;
                         }});
    }
    steps.push_back({"pop", [](NotifyModelState& s) {
                         if (s.node_pushed && !s.node_popped) {
                             s.node_popped = true;
                             wake(s);
                         }
                         return true;
                     }});
    return steps;
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
                out.first_violation = "waiter asleep with an item available:";
                for (const std::string& t : trace) out.first_violation += " " + t;
            }
        }
    }
};

inline NotifyExploreResult explore(std::vector<Step> waiter, std::vector<Step> notifier) {
    Explorer e{std::move(waiter), std::move(notifier), {}, {}};
    e.run(NotifyModelState{}, 0, 0);
    return e.out;
}

}  // namespace detail_notify

// Every interleaving of one blocking waiter and one notifier.
inline NotifyExploreResult explore_blocking_handshake(NotifyMutant m = NotifyMutant::kNone) {
    return detail_notify::explore(detail_notify::blocking_waiter(m),
                                  detail_notify::blocking_notifier(m));
}

// Every interleaving of one async awaiter and one waker.
inline NotifyExploreResult explore_async_handshake(NotifyMutant m = NotifyMutant::kNone) {
    return detail_notify::explore(detail_notify::async_awaiter(),
                                  detail_notify::async_waker(m));
}

}  // namespace lcrq::verify
