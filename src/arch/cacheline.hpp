// Cache-line layout helpers.
//
// The algorithms in this library are dominated by coherence traffic on a
// handful of hot words (queue head/tail indices, ring nodes, combiner
// locks).  Keeping logically independent hot words on distinct cache lines
// is load-bearing for every measurement in the paper, so the layout rules
// live here in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace lcrq {

// std::hardware_destructive_interference_size is 64 on every x86 this
// library targets, but GCC warns that its value is ABI-fragile; pin it.
inline constexpr std::size_t kCacheLineSize = 64;

// Intel prefetches cache-line pairs; separating hot words by two lines
// avoids adjacent-line false sharing.  Used for the queue-global indices.
inline constexpr std::size_t kDestructivePairSize = 2 * kCacheLineSize;

// A value of T alone on its own cache line.  Deliberately minimal: no
// implicit conversions, so call sites make the indirection visible.
template <typename T, std::size_t Align = kCacheLineSize>
struct alignas(Align) CacheAligned {
    static_assert(Align >= alignof(T));

    T value{};

    CacheAligned() = default;
    template <typename... Args>
    explicit CacheAligned(Args&&... args) : value(std::forward<Args>(args)...) {}

    T& operator*() noexcept { return value; }
    const T& operator*() const noexcept { return value; }
    T* operator->() noexcept { return &value; }
    const T* operator->() const noexcept { return &value; }

  private:
    char pad_[Align - (sizeof(T) % Align == 0 ? Align : sizeof(T) % Align)]{};
};

static_assert(sizeof(CacheAligned<std::uint64_t>) == kCacheLineSize);
static_assert(alignof(CacheAligned<std::uint64_t>) == kCacheLineSize);

// Spread consecutive indices of an array of 8-byte words across cache lines
// (DISC'19 §4.6): rotate index j < 2^bits left by 3 within its bits-wide
// field, so neighbours land 8 words (one line) apart.  Identity at 3 bits
// or fewer, where the whole array fits in a line anyway.  A bijection on
// [0, 2^bits) for bits < 64; unspread is its inverse.  SCQ's ring entries,
// its value queue's data slots and wCQ's help records all use it.
constexpr std::uint64_t spread(std::uint64_t j, unsigned bits) noexcept {
    if (bits <= 3) return j;
    return ((j << 3) | (j >> (bits - 3))) & ((std::uint64_t{1} << bits) - 1);
}
constexpr std::uint64_t unspread(std::uint64_t u, unsigned bits) noexcept {
    if (bits <= 3) return u;
    return ((u >> 3) | (u << (bits - 3))) & ((std::uint64_t{1} << bits) - 1);
}

// Allocate an array of T aligned to a cache line (or stronger).  Returns
// nullptr on failure like operator new(nothrow); callers in the queue hot
// paths treat allocation failure as fatal via check_alloc().
template <typename T>
[[nodiscard]] inline T* aligned_array_alloc(std::size_t n, std::size_t align = kCacheLineSize) {
    void* p = ::operator new[](n * sizeof(T), std::align_val_t{align}, std::nothrow);
    return static_cast<T*>(p);
}

template <typename T>
inline void aligned_array_free(T* p, std::size_t align = kCacheLineSize) noexcept {
    ::operator delete[](p, std::align_val_t{align});
}

[[noreturn]] void alloc_failure();  // defined in hazard_pointers.cpp (any TU)

template <typename T>
inline T* check_alloc(T* p) {
    if (p == nullptr) alloc_failure();
    return p;
}

}  // namespace lcrq
