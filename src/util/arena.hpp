// stgcc -- bump allocator backing the search's hot data structures.
//
// An Arena hands out aligned, zero-initialised storage from large slabs and
// frees everything at once on destruction.  The CodingProblem carves its
// relation matrices and leaf tables out of one arena, so the whole
// structure is a handful of contiguous allocations instead of thousands of
// per-row vectors -- and tearing it down is a handful of frees.
//
// Ownership rules (docs/MEMORY.md):
//   * The arena owns every byte it hands out; callers receive raw pointers
//     or spans and must not free them.
//   * Element types must be trivially destructible -- the arena never runs
//     destructors.
//   * Arenas are move-only.  Moving an arena keeps all previously returned
//     pointers valid (slabs live on the heap); the moved-from arena is empty.
//
// Accounting: per-instance bytes_allocated()/bytes_reserved(), plus
// process-wide live/peak byte counters exported as the `mem.arena_bytes` /
// `mem.arena_peak_bytes` gauges by the allocation sites (this header stays
// obs-free so util does not depend on obs).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace stgcc::util {

class Arena {
public:
    /// Every allocation is aligned to at least this (one cache line), so
    /// bit-matrix rows never share a line with unrelated data.
    static constexpr std::size_t kAlignment = 64;
    /// Default slab size; requests larger than a slab get their own slab.
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    Arena() = default;

    Arena(Arena&& o) noexcept
        : slabs_(std::move(o.slabs_)),
          cur_(o.cur_),
          end_(o.end_),
          allocated_(o.allocated_),
          reserved_(o.reserved_) {
        o.slabs_.clear();
        o.cur_ = o.end_ = nullptr;
        o.allocated_ = o.reserved_ = 0;
    }

    Arena& operator=(Arena&& o) noexcept {
        if (this != &o) {
            release();
            slabs_ = std::move(o.slabs_);
            cur_ = o.cur_;
            end_ = o.end_;
            allocated_ = o.allocated_;
            reserved_ = o.reserved_;
            o.slabs_.clear();
            o.cur_ = o.end_ = nullptr;
            o.allocated_ = o.reserved_ = 0;
        }
        return *this;
    }

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    ~Arena() { release(); }

    /// Zero-initialised array of `n` elements of trivially destructible `T`.
    /// n == 0 returns nullptr (an empty span is never dereferenced).  Throws
    /// std::bad_array_new_length when n * sizeof(T) does not fit a size_t,
    /// like new T[n].
    template <typename T>
    [[nodiscard]] T* alloc_array(std::size_t n) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena never runs destructors");
        static_assert(alignof(T) <= kAlignment);
        if (n == 0) return nullptr;
        if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
        void* p = alloc_bytes(n * sizeof(T));
        std::memset(p, 0, n * sizeof(T));
        return static_cast<T*>(p);
    }

    /// Raw aligned storage (not zeroed); prefer alloc_array.
    [[nodiscard]] void* alloc_bytes(std::size_t bytes) {
        if (bytes > SIZE_MAX - (kAlignment - 1)) throw std::bad_alloc();
        const std::size_t rounded = round_up(bytes);
        if (static_cast<std::size_t>(end_ - cur_) < rounded) new_slab(rounded);
        std::byte* p = cur_;
        cur_ += rounded;
        allocated_ += rounded;
        return p;
    }

    /// Bytes handed out (after alignment rounding).
    [[nodiscard]] std::size_t bytes_allocated() const noexcept {
        return allocated_;
    }
    /// Bytes reserved from the system (slab granularity; >= allocated).
    [[nodiscard]] std::size_t bytes_reserved() const noexcept {
        return reserved_;
    }
    [[nodiscard]] std::size_t num_slabs() const noexcept {
        return slabs_.size();
    }

    /// Process-wide bytes currently reserved by live arenas, and the peak
    /// ever reached -- the values behind the mem.* gauges.
    [[nodiscard]] static std::uint64_t process_live_bytes() noexcept {
        return live_bytes_().load(std::memory_order_relaxed);
    }
    [[nodiscard]] static std::uint64_t process_peak_bytes() noexcept {
        return peak_bytes_().load(std::memory_order_relaxed);
    }

private:
    struct Slab {
        std::byte* data;
        std::size_t size;
    };

    static constexpr std::size_t round_up(std::size_t bytes) noexcept {
        return (bytes + kAlignment - 1) & ~(kAlignment - 1);
    }

    void new_slab(std::size_t at_least) {
        const std::size_t size = at_least > kSlabBytes ? at_least : kSlabBytes;
        auto* data = static_cast<std::byte*>(
            ::operator new(size, std::align_val_t{kAlignment}));
        slabs_.push_back(Slab{data, size});
        cur_ = data;
        end_ = data + size;
        reserved_ += size;
        const std::uint64_t live =
            live_bytes_().fetch_add(size, std::memory_order_relaxed) + size;
        std::uint64_t peak = peak_bytes_().load(std::memory_order_relaxed);
        while (live > peak && !peak_bytes_().compare_exchange_weak(
                                  peak, live, std::memory_order_relaxed)) {
        }
    }

    void release() noexcept {
        if (reserved_ != 0)
            live_bytes_().fetch_sub(reserved_, std::memory_order_relaxed);
        for (const Slab& s : slabs_)
            ::operator delete(s.data, std::align_val_t{kAlignment});
        slabs_.clear();
        cur_ = end_ = nullptr;
        allocated_ = reserved_ = 0;
    }

    static std::atomic<std::uint64_t>& live_bytes_() noexcept {
        static std::atomic<std::uint64_t> v{0};
        return v;
    }
    static std::atomic<std::uint64_t>& peak_bytes_() noexcept {
        static std::atomic<std::uint64_t> v{0};
        return v;
    }

    std::vector<Slab> slabs_;
    std::byte* cur_ = nullptr;
    std::byte* end_ = nullptr;
    std::size_t allocated_ = 0;
    std::size_t reserved_ = 0;
};

}  // namespace stgcc::util
