// stgcc -- dynamic bit vector and non-owning bit-span views.
//
// Used throughout the library for signal code vectors, causality / conflict /
// concurrency relations over unfolding events and conditions, and
// configuration membership sets.  The width is fixed at construction (or by
// resize) and all binary operations require equal widths.
//
// BitSpan / MutBitSpan are non-owning views over word storage held elsewhere
// (a BitVec, or a row of a util::BitMatrix slab).  Aliasing contract
// (docs/MEMORY.md): a BitSpan is valid exactly as long as the storage behind
// it; the Prefix hands out exact-width spans over its (wider) row vectors,
// the search structures spans into arena slabs that live as long as the
// owning object, and a BitVec converts to a BitSpan over its own words.
// Binary BitVec operations take BitSpan, so one code path serves both owned
// vectors and stored rows.  All producers keep the invariant that bits past
// size() are zero in the last word.
#pragma once

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace stgcc {

/// Read-only view of `size` bits over externally owned words.
class BitSpan {
public:
    using Word = std::uint64_t;
    static constexpr std::size_t kWordBits = 64;

    constexpr BitSpan() = default;
    constexpr BitSpan(const Word* words, std::size_t size) noexcept
        : words_(words), size_(size) {}

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] const Word* words() const noexcept { return words_; }
    [[nodiscard]] std::size_t num_words() const noexcept {
        return (size_ + kWordBits - 1) / kWordBits;
    }

    [[nodiscard]] bool test(std::size_t i) const {
        STGCC_ASSERT(i < size_);
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    [[nodiscard]] std::size_t count() const noexcept {
        std::size_t n = 0;
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            n += static_cast<std::size_t>(std::popcount(words_[wi]));
        return n;
    }

    [[nodiscard]] bool any() const noexcept {
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            if (words_[wi]) return true;
        return false;
    }

    [[nodiscard]] bool none() const noexcept { return !any(); }

    /// Index of the lowest set bit, or size() when none.
    [[nodiscard]] std::size_t find_first() const noexcept {
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            if (words_[wi])
                return wi * kWordBits +
                       static_cast<std::size_t>(std::countr_zero(words_[wi]));
        return size_;
    }

    /// Index of the lowest set bit strictly above `i`, or size() when none.
    [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept {
        ++i;
        if (i >= size_) return size_;
        std::size_t wi = i / kWordBits;
        Word w = words_[wi] & (~Word{0} << (i % kWordBits));
        const std::size_t nw = num_words();
        while (true) {
            if (w) return wi * kWordBits +
                          static_cast<std::size_t>(std::countr_zero(w));
            if (++wi >= nw) return size_;
            w = words_[wi];
        }
    }

    /// True when this and o share at least one set bit.
    [[nodiscard]] bool intersects(BitSpan o) const {
        STGCC_ASSERT(size_ == o.size_);
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            if (words_[wi] & o.words_[wi]) return true;
        return false;
    }

    /// True when every set bit of this is also set in o.
    [[nodiscard]] bool subset_of(BitSpan o) const {
        STGCC_ASSERT(size_ == o.size_);
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            if (words_[wi] & ~o.words_[wi]) return false;
        return true;
    }

    [[nodiscard]] std::size_t hash() const noexcept {
        return hash_range(words_, words_ + num_words());
    }

    /// Render as a 0/1 string, bit 0 first (matching signal order in codes).
    [[nodiscard]] std::string to_string() const {
        std::string s;
        s.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i) s.push_back(test(i) ? '1' : '0');
        return s;
    }

    /// Call `fn(i)` for each set bit in increasing order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi) {
            Word w = words_[wi];
            while (w) {
                const int bit = std::countr_zero(w);
                fn(wi * kWordBits + static_cast<std::size_t>(bit));
                w &= w - 1;
            }
        }
    }

    friend bool operator==(BitSpan a, BitSpan b) {
        if (a.size_ != b.size_) return false;
        for (std::size_t wi = 0, nw = a.num_words(); wi < nw; ++wi)
            if (a.words_[wi] != b.words_[wi]) return false;
        return true;
    }

    friend std::ostream& operator<<(std::ostream& os, BitSpan v) {
        return os << v.to_string();
    }

private:
    const Word* words_ = nullptr;
    std::size_t size_ = 0;
};

/// Mutable view of `size` bits over externally owned words (a BitMatrix
/// row during construction).  Writers must keep bits past size() zero;
/// set_all() masks the tail accordingly.
class MutBitSpan {
public:
    using Word = BitSpan::Word;
    static constexpr std::size_t kWordBits = BitSpan::kWordBits;

    constexpr MutBitSpan() = default;
    constexpr MutBitSpan(Word* words, std::size_t size) noexcept
        : words_(words), size_(size) {}

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t num_words() const noexcept {
        return (size_ + kWordBits - 1) / kWordBits;
    }
    [[nodiscard]] operator BitSpan() const noexcept {  // NOLINT(google-explicit-constructor)
        return BitSpan(words_, size_);
    }

    [[nodiscard]] bool test(std::size_t i) const {
        STGCC_ASSERT(i < size_);
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    void set(std::size_t i) {
        STGCC_ASSERT(i < size_);
        words_[i / kWordBits] |= Word{1} << (i % kWordBits);
    }

    void reset(std::size_t i) {
        STGCC_ASSERT(i < size_);
        words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
    }

    void clear() {
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi) words_[wi] = 0;
    }

    void set_all() {
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            words_[wi] = ~Word{0};
        clear_tail();
    }

    MutBitSpan& operator|=(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            words_[wi] |= o.words()[wi];
        return *this;
    }

    MutBitSpan& operator&=(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            words_[wi] &= o.words()[wi];
        return *this;
    }

    /// this := this \ o  (and-not).
    MutBitSpan& subtract(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t wi = 0, nw = num_words(); wi < nw; ++wi)
            words_[wi] &= ~o.words()[wi];
        return *this;
    }

private:
    void clear_tail() {
        const std::size_t tail = size_ % kWordBits;
        if (tail != 0 && size_ > 0)
            words_[num_words() - 1] &= (Word{1} << tail) - 1;
    }

    Word* words_ = nullptr;
    std::size_t size_ = 0;
};

class BitVec {
public:
    using Word = std::uint64_t;
    static constexpr std::size_t kWordBits = 64;

    BitVec() = default;

    /// A vector of `size` bits, all zero.
    explicit BitVec(std::size_t size)
        : size_(size), words_((size + kWordBits - 1) / kWordBits, 0) {}

    /// Owned copy of a view (explicit: copies of stored rows should be
    /// visible at the call site).
    explicit BitVec(BitSpan s)
        : size_(s.size()), words_(s.words(), s.words() + s.num_words()) {}

    /// View of this vector's bits; valid while the vector is neither
    /// destroyed nor resized.
    [[nodiscard]] operator BitSpan() const noexcept {  // NOLINT(google-explicit-constructor)
        return BitSpan(words_.data(), size_);
    }
    [[nodiscard]] BitSpan span() const noexcept {
        return BitSpan(words_.data(), size_);
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    /// Grow (or shrink) to `size` bits; new bits are zero.
    void resize(std::size_t size) {
        size_ = size;
        words_.resize((size + kWordBits - 1) / kWordBits, 0);
        clear_tail();
    }

    [[nodiscard]] bool test(std::size_t i) const {
        STGCC_ASSERT(i < size_);
        return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    void set(std::size_t i) {
        STGCC_ASSERT(i < size_);
        words_[i / kWordBits] |= Word{1} << (i % kWordBits);
    }

    void reset(std::size_t i) {
        STGCC_ASSERT(i < size_);
        words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
    }

    void assign_bit(std::size_t i, bool value) {
        if (value)
            set(i);
        else
            reset(i);
    }

    void clear() {
        for (Word& w : words_) w = 0;
    }

    void set_all() {
        for (Word& w : words_) w = ~Word{0};
        clear_tail();
    }

    /// Number of set bits.
    [[nodiscard]] std::size_t count() const noexcept { return span().count(); }

    [[nodiscard]] bool any() const noexcept { return span().any(); }

    [[nodiscard]] bool none() const noexcept { return !any(); }

    /// Index of the lowest set bit, or size() when none.
    [[nodiscard]] std::size_t find_first() const noexcept {
        return span().find_first();
    }

    /// Index of the lowest set bit strictly above `i`, or size() when none.
    [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept {
        return span().find_next(i);
    }

    BitVec& operator|=(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words()[i];
        return *this;
    }

    BitVec& operator&=(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words()[i];
        return *this;
    }

    BitVec& operator^=(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words()[i];
        return *this;
    }

    /// this := this \ o  (and-not).
    BitVec& subtract(BitSpan o) {
        STGCC_ASSERT(size_ == o.size());
        for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words()[i];
        return *this;
    }

    friend BitVec operator|(BitVec a, BitSpan b) { return a |= b; }
    friend BitVec operator&(BitVec a, BitSpan b) { return a &= b; }
    friend BitVec operator^(BitVec a, BitSpan b) { return a ^= b; }

    /// True when this and o share at least one set bit.
    [[nodiscard]] bool intersects(BitSpan o) const { return span().intersects(o); }

    /// True when every set bit of this is also set in o.
    [[nodiscard]] bool subset_of(BitSpan o) const { return span().subset_of(o); }

    friend bool operator==(const BitVec& a, const BitVec& b) {
        return a.size_ == b.size_ && a.words_ == b.words_;
    }

    /// Total order: by size first, then lexicographic from bit 0 upward with
    /// 0 < 1 (i.e. the vector that has its first differing bit clear is
    /// smaller).  Used for canonical ordering of code vectors.
    friend bool operator<(const BitVec& a, const BitVec& b) {
        if (a.size_ != b.size_) return a.size_ < b.size_;
        for (std::size_t i = 0; i < a.words_.size(); ++i) {
            if (a.words_[i] != b.words_[i]) {
                const Word diff = a.words_[i] ^ b.words_[i];
                const int bit = std::countr_zero(diff);
                return ((a.words_[i] >> bit) & 1u) == 0;
            }
        }
        return false;
    }

    [[nodiscard]] std::size_t hash() const noexcept {
        return hash_range(words_.begin(), words_.end());
    }

    /// Render as a 0/1 string, bit 0 first (matching signal order in codes).
    [[nodiscard]] std::string to_string() const { return span().to_string(); }

    /// Call `fn(i)` for each set bit in increasing order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        span().for_each(static_cast<Fn&&>(fn));
    }

    friend std::ostream& operator<<(std::ostream& os, const BitVec& v) {
        return os << v.to_string();
    }

private:
    void clear_tail() {
        const std::size_t tail = size_ % kWordBits;
        if (tail != 0 && !words_.empty())
            words_.back() &= (Word{1} << tail) - 1;
    }

    std::size_t size_ = 0;
    std::vector<Word> words_;
};

struct BitVecHash {
    std::size_t operator()(const BitVec& v) const noexcept { return v.hash(); }
};

}  // namespace stgcc
