// Hazard-pointer domain tests: protection blocks reclamation, retirement
// frees unprotected objects, records are recycled across threads (with
// their retired backlog), and the domain destructor drains leftovers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>

#include "arch/thread_id.hpp"
#include "hazard/hazard_pointers.hpp"
#include "test_support.hpp"

namespace lcrq {
namespace {

struct Tracked {
    static std::atomic<int> live;
    int payload;
    explicit Tracked(int p = 0) : payload(p) { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

TEST(Hazard, RetireWithoutProtectionFreesOnScan) {
    ASSERT_EQ(Tracked::live.load(), 0);
    {
        HazardDomain domain;
        for (int i = 0; i < 100; ++i) domain.retire(new Tracked(i));
        domain.scan();
    }
    EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Hazard, ProtectedObjectSurvivesScan) {
    HazardDomain domain;
    std::atomic<Tracked*> shared{new Tracked(1)};
    Tracked* p = domain.protect(shared, 0);
    ASSERT_EQ(p->payload, 1);

    // Another thread retires and scans while this one holds its slot.
    int live_after_scan = -1;
    std::thread([&] {
        domain.retire(p);
        domain.scan();
        live_after_scan = Tracked::live.load();
    }).join();
    EXPECT_EQ(live_after_scan, 1) << "protected object was freed";
    EXPECT_GE(domain.retired_count(), 1u);

    domain.clear(0);
    domain.scan();
    EXPECT_EQ(Tracked::live.load(), 0);
    shared.store(nullptr);
}

TEST(Hazard, ProtectFollowsRacingUpdates) {
    HazardDomain domain;
    auto* a = new Tracked(1);
    auto* b = new Tracked(2);
    std::atomic<Tracked*> shared{a};
    // Single-threaded: protect returns the current pointer.
    EXPECT_EQ(domain.protect(shared, 0), a);
    shared.store(b);
    EXPECT_EQ(domain.protect(shared, 1), b);
    domain.clear_all();
    delete a;
    delete b;
}

TEST(Hazard, DomainDestructorDrainsLeftovers) {
    {
        HazardDomain domain;
        domain.retire(new Tracked(7));  // below threshold: not yet freed
    }
    EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Hazard, RecordsAreRecycledAcrossThreads) {
    HazardDomain domain;
    for (int round = 0; round < 20; ++round) {
        std::thread([&] {
            std::atomic<Tracked*> shared{nullptr};
            domain.protect(shared, 0);
            domain.clear(0);
        }).join();
    }
    // Sequential threads recycle one thread id, and with it one record.
    EXPECT_LE(domain.record_count(), 2u);
}

// A thread that exits below the retire threshold leaves its backlog on its
// record; the next owner of its thread id drains it.
TEST(Hazard, ExitedThreadsBacklogPassesToNextOwner) {
    HazardDomain domain;
    std::size_t first_id = 0;
    std::size_t next_id = 0;
    std::thread([&] {
        first_id = thread_index();
        for (int i = 0; i < 3; ++i) domain.retire(new Tracked(i));
    }).join();
    EXPECT_EQ(Tracked::live.load(), 3);
    EXPECT_EQ(domain.retired_count(), 3u);
    std::thread([&] {
        next_id = thread_index();
        domain.drain_now();
    }).join();
    ASSERT_EQ(next_id, first_id) << "the exited thread's id is the lowest free one";
    EXPECT_EQ(Tracked::live.load(), 0);
    EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(Hazard, ExitedThreadsBacklogFreedByDomainDestructor) {
    {
        HazardDomain domain;
        std::thread([&] {
            for (int i = 0; i < 3; ++i) domain.retire(new Tracked(i));
        }).join();
        EXPECT_EQ(Tracked::live.load(), 3);
    }
    EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Hazard, ConcurrentRetireStress) {
    HazardDomain domain;
    constexpr int kThreads = 4;
    constexpr int kObjects = 2'000;
    test::run_threads(kThreads, [&](int) {
        for (int i = 0; i < kObjects; ++i) domain.retire(new Tracked(i));
    });
    domain.scan();
    EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Hazard, ConcurrentProtectRetireStress) {
    // Threads alternately publish a fresh object and retire the previous
    // one; readers chase the pointer through hazard protection.  ASan (or
    // the Tracked balance) catches any premature free.
    HazardDomain domain;
    std::atomic<Tracked*> shared{new Tracked(0)};
    std::atomic<bool> stop{false};
    constexpr int kWriters = 2;
    constexpr int kReaders = 2;
    constexpr int kUpdates = 3'000;
    std::atomic<int> writers_left{kWriters};

    test::run_threads(kWriters + kReaders, [&](int id) {
        if (id < kWriters) {
            for (int i = 0; i < kUpdates; ++i) {
                auto* fresh = new Tracked(i);
                Tracked* old = shared.exchange(fresh, std::memory_order_acq_rel);
                if (old != nullptr) domain.retire(old);
            }
            if (writers_left.fetch_sub(1) == 1) stop.store(true);
        } else {
            std::uint64_t checksum = 0;
            while (!stop.load(std::memory_order_acquire)) {
                Tracked* p = domain.protect(shared, 0);
                if (p != nullptr) checksum += static_cast<std::uint64_t>(p->payload);
                domain.clear(0);
            }
            EXPECT_GE(checksum, 0u);
        }
    });
    delete shared.exchange(nullptr);
    domain.scan();
    EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Hazard, MultipleSlotsProtectIndependently) {
    HazardDomain domain;
    auto* a = new Tracked(1);
    auto* b = new Tracked(2);
    std::atomic<Tracked*> sa{a}, sb{b};
    EXPECT_EQ(domain.protect(sa, 0), a);
    EXPECT_EQ(domain.protect(sb, 1), b);
    // Another thread retires and scans while this one holds both slots.
    int live_after_scan = -1;
    std::thread([&] {
        domain.retire(a);
        domain.retire(b);
        domain.scan();
        live_after_scan = Tracked::live.load();
    }).join();
    EXPECT_EQ(live_after_scan, 2) << "both slots must hold";
    domain.clear(0);  // release a only
    domain.scan();
    EXPECT_EQ(Tracked::live.load(), 1);
    domain.clear(1);
    domain.scan();
    EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Hazard, DomainsAreIsolated) {
    HazardDomain d1, d2;
    std::atomic<Tracked*> shared{new Tracked(5)};
    Tracked* p = d1.protect(shared, 0);
    // Retiring into a *different* domain must free immediately on scan:
    // d2 does not see d1's slots.
    d2.retire(p);
    d2.scan();
    EXPECT_EQ(Tracked::live.load(), 0)
        << "protection in d1 must not leak into d2";
    d1.clear(0);
    shared.store(nullptr);
}

TEST(Hazard, RetiredBacklogStaysBoundedUnderChurn) {
    HazardDomain domain;
    std::size_t max_backlog = 0;
    for (int i = 0; i < 10'000; ++i) {
        domain.retire(new Tracked(i));
        max_backlog = std::max(max_backlog, domain.retired_count());
    }
    // Amortized scanning keeps the backlog near the threshold, not O(n).
    EXPECT_LT(max_backlog, 200u);
    domain.scan();
    EXPECT_EQ(Tracked::live.load(), 0);
}

}  // namespace
}  // namespace lcrq
