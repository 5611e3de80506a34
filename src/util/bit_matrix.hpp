// stgcc -- dense bit matrix carved out of an Arena.
//
// One contiguous slab of rows x ceil(cols/64) words; row(i) is a BitSpan
// row-slice, mut_row(i) the writable view used while populating.  The
// matrix does not own its storage -- the Arena passed at construction does
// -- so a BitMatrix handle is trivially movable and the search structures
// (CodingProblem signal masks and leaf tables) keep one handle per table
// next to the owning arena.
#pragma once

#include <cstddef>

#include "util/arena.hpp"
#include "util/bitvec.hpp"

namespace stgcc::util {

class BitMatrix {
public:
    using Word = BitSpan::Word;
    static constexpr std::size_t kWordBits = BitSpan::kWordBits;

    BitMatrix() = default;

    /// rows x cols matrix of zero bits, storage allocated from `arena`
    /// (which must outlive every view of this matrix).
    BitMatrix(Arena& arena, std::size_t rows, std::size_t cols)
        : rows_(rows),
          cols_(cols),
          stride_((cols + kWordBits - 1) / kWordBits),
          data_(arena.alloc_array<Word>(rows * ((cols + kWordBits - 1) / kWordBits))) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    /// Words per row.
    [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
    /// Slab footprint in bytes.
    [[nodiscard]] std::size_t bytes() const noexcept {
        return rows_ * stride_ * sizeof(Word);
    }

    [[nodiscard]] BitSpan row(std::size_t i) const {
        STGCC_ASSERT(i < rows_);
        return BitSpan(data_ + i * stride_, cols_);
    }

    [[nodiscard]] MutBitSpan mut_row(std::size_t i) {
        STGCC_ASSERT(i < rows_);
        return MutBitSpan(data_ + i * stride_, cols_);
    }

    [[nodiscard]] bool test(std::size_t r, std::size_t c) const {
        return row(r).test(c);
    }
    void set(std::size_t r, std::size_t c) { mut_row(r).set(c); }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
    Word* data_ = nullptr;
};

}  // namespace stgcc::util
