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

// Visit every record a scan must see: the ids below the high-water mark
// whose owner has attached.  seq_cst, to pair with attach (below).
template <typename F>
void HazardDomain::for_each_record(F&& f) const {
    const std::size_t n = high_water_.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < n; ++i) {
        detail::HazardRecord* rec = records_[i].load(std::memory_order_seq_cst);
        if (rec != nullptr) f(*rec);
    }
}

HazardDomain::~HazardDomain() {
    // No concurrent users may remain.  Free everything still retired, then
    // the records themselves.
    for_each_record([](detail::HazardRecord& rec) {
        for (const auto& obj : rec.retired) obj.deleter(obj.ptr, obj.ctx);
        delete &rec;
    });
}

detail::HazardRecord& HazardDomain::attach(std::size_t id) {
    auto* rec = check_alloc(new (std::nothrow) detail::HazardRecord);
    // Raise the high-water mark, then publish the record, both seq_cst and
    // both before this thread's first slot store: a scan that follows an
    // unlink then visits every slot that could protect the unlinked
    // pointer.  Plain atomics, so no event counter moves.
    std::size_t hw = high_water_.load(std::memory_order_seq_cst);
    while (hw <= id && !high_water_.compare_exchange_weak(hw, id + 1,
                                                          std::memory_order_seq_cst)) {
    }
    records_[id].store(rec, std::memory_order_seq_cst);
    return *rec;
}

void HazardDomain::collect_protected(std::vector<void*>& out) const {
    out.clear();
    for_each_record([&](const detail::HazardRecord& rec) {
        for (const auto& s : rec.slots) {
            void* p = s.load(std::memory_order_acquire);
            if (p != nullptr) out.push_back(p);
        }
    });
    std::sort(out.begin(), out.end());
}

void HazardDomain::drain(std::vector<detail::RetiredObject>& objs) {
    if (objs.empty()) return;
    LCRQ_INJECT_POINT(kHazardScan);
    std::vector<void*> protected_ptrs;
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
}

void HazardDomain::retire(void* ptr, void (*deleter)(void*, void*), void* ctx) {
    std::vector<detail::RetiredObject>& retired = my_record().retired;
    retired.push_back({ptr, deleter, ctx});
    LCRQ_INJECT_POINT(kHazardRetire);
    const std::size_t threshold =
        2 * detail::HazardRecord::kSlots *
            std::max<std::size_t>(high_water_.load(std::memory_order_relaxed), 1) +
        8;
    if (retired.size() >= threshold) drain(retired);
}

void HazardDomain::drain_now() { drain(my_record().retired); }

void HazardDomain::scan() {
    // Quiescent-only (see header): touching every record's retired list is
    // safe because no owner is concurrently retiring.
    for_each_record([&](detail::HazardRecord& rec) { drain(rec.retired); });
}

std::size_t HazardDomain::retired_count() const {
    std::size_t n = 0;
    for_each_record([&](const detail::HazardRecord& rec) { n += rec.retired.size(); });
    return n;
}

std::size_t HazardDomain::record_count() const {
    std::size_t n = 0;
    for_each_record([&](const detail::HazardRecord&) { ++n; });
    return n;
}

}  // namespace lcrq
