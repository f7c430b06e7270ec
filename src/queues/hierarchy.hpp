// Hierarchy-awareness policies (paper §4.1.1, "Hierarchy awareness").
//
// On multi-socket machines, batching operations so that stretches of
// activity complete on one cluster amortizes cross-socket coherence
// misses.  The CRQ carries a `cluster` tag; before operating, a thread on
// another cluster waits up to a timeout for the tag to change, then CASes
// the tag to its own cluster and proceeds *regardless* — unlike NUMA lock
// cohorting, nobody is ever blocked, so the nonblocking guarantee stands.
//
// Counting model (Tables 2/3 pipeline):
//   kClusterEnter   — every enter() call (the handoff-rate denominator);
//   kClusterWait    — enters that observed a foreign tag and spun;
//   kClusterHandoff — timeout expiries that went on to claim the tag
//                     (counted whether or not the CAS won: ownership moved
//                     to *a* claimant either way, and this thread entered).
// The claiming CAS itself lands in kCas/kCasFailure like every other CAS.
#pragma once

#include <atomic>
#include <cstdint>

#include "arch/backoff.hpp"
#include "arch/counters.hpp"
#include "arch/inject.hpp"
#include "topology/topology.hpp"
#include "util/timing.hpp"

namespace lcrq {

// LCRQ: operations enter the CRQ immediately.
struct NoHierarchy {
    static constexpr const char* suffix() noexcept { return ""; }
    explicit NoHierarchy(std::uint64_t /*timeout_ns*/ = 0,
                         bool /*proceed_on_timeout*/ = true) {}

    template <typename CrqT>
    void enter(CrqT& /*crq*/) const noexcept {}
};

// LCRQ-H: cluster handoff with bounded waiting (default timeout 100 µs).
class ClusterHierarchy {
  public:
    static constexpr const char* suffix() noexcept { return "-h"; }
    explicit ClusterHierarchy(std::uint64_t timeout_ns = 100'000,
                              bool proceed_on_timeout = true)
        : timeout_ns_(timeout_ns), proceed_on_timeout_(proceed_on_timeout) {}

    std::uint64_t timeout_ns() const noexcept { return timeout_ns_; }

    template <typename CrqT>
    void enter(CrqT& crq) const LCRQ_INJECT_NOEXCEPT {
        stats::count(stats::Event::kClusterEnter);
        const int mine = topo::current_cluster();
        int cur = crq.cluster.load(std::memory_order_relaxed);
        if (cur == mine) return;

        stats::count(stats::Event::kClusterWait);
        // Deadline arithmetic stays in deltas (`rdtsc() - start < budget`)
        // so a TSC near wraparound cannot produce an already-expired or
        // never-expiring deadline the way an absolute `rdtsc() < deadline`
        // comparison can.
        const std::uint64_t start = rdtsc();
        const std::uint64_t budget = static_cast<std::uint64_t>(
            static_cast<double>(timeout_ns_) * tsc_per_ns());
        SpinWait waiter;
        for (;;) {
            LCRQ_INJECT_POINT(kClusterWait);
            cur = crq.cluster.load(std::memory_order_relaxed);
            if (cur == mine) return;  // the tag came to us: no claim needed
            if (proceed_on_timeout_ && rdtsc() - start >= budget) break;
            waiter.spin();
        }
        // Timed out: claim the CRQ for our cluster and enter even if the
        // CAS loses to another claimant (paper: "even if the CAS fails" —
        // this unconditional fall-through is the whole nonblocking
        // argument, so it carries its own injection point).
        LCRQ_INJECT_POINT(kClusterClaim);
        stats::count(stats::Event::kCas);
        if (!crq.cluster.compare_exchange_strong(cur, mine, std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
            stats::count(stats::Event::kCasFailure);
        }
        stats::count(stats::Event::kClusterHandoff);
    }

  private:
    std::uint64_t timeout_ns_;
    bool proceed_on_timeout_;
};

}  // namespace lcrq
