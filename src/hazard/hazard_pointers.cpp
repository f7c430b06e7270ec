#include "hazard/hazard_pointers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "arch/inject.hpp"

namespace lcrq {

[[noreturn]] void alloc_failure() {
    std::fputs("lcrq: allocation failure\n", stderr);
    std::abort();
}

HazardDomain::~HazardDomain() {
    // No concurrent users may remain.  Free everything still retired; the
    // table then deletes the records.
    records_.for_each([](detail::HazardRecord& rec) {
        for (const auto& obj : rec.retired) obj.deleter(obj.ptr, obj.ctx);
    });
}

void HazardDomain::collect_protected(std::vector<void*>& out) const {
    out.clear();
    records_.for_each([&](const detail::HazardRecord& rec) {
        for (const auto& s : rec.slots) {
            void* p = s.load(std::memory_order_acquire);
            if (p != nullptr) out.push_back(p);
        }
    });
    std::sort(out.begin(), out.end());
}

void HazardDomain::drain(detail::HazardRecord& rec) {
    std::vector<detail::RetiredObject>& objs = rec.retired;
    if (objs.empty()) return;
    LCRQ_INJECT_POINT(kHazardScan);
    std::vector<void*>& protected_ptrs = rec.protected_ptrs;
    collect_protected(protected_ptrs);
    std::size_t kept = 0;
    for (auto& obj : objs) {
        if (std::binary_search(protected_ptrs.begin(), protected_ptrs.end(), obj.ptr)) {
            objs[kept++] = obj;
        } else {
            obj.deleter(obj.ptr, obj.ctx);
        }
    }
    objs.resize(kept);
    rec.retired_tally.store(kept, std::memory_order_relaxed);
}

void HazardDomain::retire(void* ptr, void (*deleter)(void*, void*), void* ctx) {
    detail::HazardRecord& rec = records_.local();
    rec.retired.push_back({ptr, deleter, ctx});
    rec.retired_tally.store(rec.retired.size(), std::memory_order_relaxed);
    LCRQ_INJECT_POINT(kHazardRetire);
    const std::size_t threshold =
        2 * detail::HazardRecord::kSlots * std::max<std::size_t>(records_.high_water(), 1) +
        8;
    if (rec.retired.size() >= threshold) drain(rec);
}

void HazardDomain::drain_now() { drain(records_.local()); }

void HazardDomain::scan() {
    // Quiescent-only (see header): touching every record's retired list is
    // safe because no owner is concurrently retiring.
    records_.for_each([&](detail::HazardRecord& rec) { drain(rec); });
}

std::size_t HazardDomain::retired_count() const {
    std::size_t n = 0;
    records_.for_each([&](const detail::HazardRecord& rec) {
        n += rec.retired_tally.load(std::memory_order_relaxed);
    });
    return n;
}

std::size_t HazardDomain::record_count() const {
    std::size_t n = 0;
    records_.for_each([&](const detail::HazardRecord&) { ++n; });
    return n;
}

}  // namespace lcrq
