#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "util/arena.hpp"
#include "util/bit_matrix.hpp"

namespace stgcc {
namespace {

TEST(BitVec, StartsEmpty) {
    BitVec v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.count(), 0u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVec, SetResetAssign) {
    BitVec v(70);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(69);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(63));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(69));
    EXPECT_EQ(v.count(), 4u);
    v.reset(63);
    EXPECT_FALSE(v.test(63));
    v.assign_bit(5, true);
    EXPECT_TRUE(v.test(5));
    v.assign_bit(5, false);
    EXPECT_FALSE(v.test(5));
}

TEST(BitVec, FindFirstAndNext) {
    BitVec v(200);
    EXPECT_EQ(v.find_first(), 200u);
    v.set(3);
    v.set(64);
    v.set(199);
    EXPECT_EQ(v.find_first(), 3u);
    EXPECT_EQ(v.find_next(3), 64u);
    EXPECT_EQ(v.find_next(64), 199u);
    EXPECT_EQ(v.find_next(199), 200u);
    EXPECT_EQ(v.find_next(0), 3u);
}

TEST(BitVec, BooleanOps) {
    BitVec a(130), b(130);
    a.set(1);
    a.set(100);
    b.set(100);
    b.set(129);
    BitVec u = a | b;
    EXPECT_EQ(u.count(), 3u);
    BitVec i = a & b;
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(100));
    BitVec x = a ^ b;
    EXPECT_EQ(x.count(), 2u);
    EXPECT_TRUE(x.test(1));
    EXPECT_TRUE(x.test(129));
    BitVec d = a;
    d.subtract(b);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_TRUE(d.test(1));
}

TEST(BitVec, SubsetAndIntersects) {
    BitVec a(66), b(66);
    a.set(2);
    b.set(2);
    b.set(65);
    EXPECT_TRUE(a.subset_of(b));
    EXPECT_FALSE(b.subset_of(a));
    EXPECT_TRUE(a.intersects(b));
    BitVec c(66);
    c.set(30);
    EXPECT_FALSE(a.intersects(c));
    EXPECT_TRUE(BitVec(66).subset_of(a));
}

TEST(BitVec, ResizePreservesAndClearsTail) {
    BitVec v(10);
    v.set(9);
    v.resize(100);
    EXPECT_TRUE(v.test(9));
    EXPECT_EQ(v.count(), 1u);
    v.set(99);
    v.resize(50);
    EXPECT_EQ(v.count(), 1u);  // bit 99 dropped
    v.resize(128);
    EXPECT_EQ(v.count(), 1u);  // tail was cleared, nothing reappears
}

TEST(BitVec, SetAllRespectsWidth) {
    BitVec v(67);
    v.set_all();
    EXPECT_EQ(v.count(), 67u);
    v.resize(130);
    EXPECT_EQ(v.count(), 67u);
}

TEST(BitVec, EqualityAndHash) {
    BitVec a(40), b(40);
    a.set(7);
    b.set(7);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.set(8);
    EXPECT_FALSE(a == b);
}

TEST(BitVec, LexicographicOrder) {
    BitVec a(8), b(8);
    // a = 01000000, b = 10000000 : first differing bit is 0, a has it clear.
    a.set(1);
    b.set(0);
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(b < a);
    EXPECT_FALSE(a < a);
    BitVec shorter(4);
    EXPECT_TRUE(shorter < a);  // size first
}

TEST(BitVec, ForEachVisitsInOrder) {
    BitVec v(300);
    std::set<std::size_t> expected = {0, 63, 64, 65, 128, 299};
    for (auto i : expected) v.set(i);
    std::vector<std::size_t> seen;
    v.for_each([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, std::vector<std::size_t>(expected.begin(), expected.end()));
}

TEST(BitVec, ToString) {
    BitVec v(5);
    v.set(0);
    v.set(3);
    EXPECT_EQ(v.to_string(), "10010");
}

class BitVecRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVecRandomTest, OpsMatchSetSemantics) {
    std::mt19937 rng(GetParam());
    const std::size_t n = 1 + rng() % 200;
    BitVec a(n), b(n);
    std::set<std::size_t> sa, sb;
    for (std::size_t k = 0; k < n; ++k) {
        if (rng() % 2) {
            a.set(k);
            sa.insert(k);
        }
        if (rng() % 2) {
            b.set(k);
            sb.insert(k);
        }
    }
    EXPECT_EQ(a.count(), sa.size());
    BitVec u = a | b;
    std::set<std::size_t> su = sa;
    su.insert(sb.begin(), sb.end());
    EXPECT_EQ(u.count(), su.size());
    BitVec i = a & b;
    std::size_t ni = 0;
    for (auto k : sa) ni += sb.count(k);
    EXPECT_EQ(i.count(), ni);
    bool subset = true;
    for (auto k : sa)
        if (!sb.count(k)) subset = false;
    EXPECT_EQ(a.subset_of(b), subset);
    EXPECT_EQ(a.intersects(b), ni > 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVecRandomTest, ::testing::Range(0u, 20u));

TEST(BitSpan, ViewsAndRoundTrips) {
    BitVec v(130);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(129);
    const BitSpan s = v;  // implicit BitVec -> BitSpan
    EXPECT_EQ(s.size(), 130u);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_TRUE(s.test(63) && s.test(64));
    EXPECT_EQ(s.find_first(), 0u);
    EXPECT_EQ(s.find_next(64), 129u);
    const BitVec copy(s);  // explicit BitSpan -> BitVec
    EXPECT_TRUE(copy == v);
    EXPECT_EQ(s.hash(), v.span().hash());
    std::size_t visited = 0;
    s.for_each([&](std::size_t) { ++visited; });
    EXPECT_EQ(visited, 4u);
}

TEST(BitSpan, SetOperationsMatchBitVec) {
    BitVec a(100), b(100);
    a.set(3);
    a.set(50);
    a.set(99);
    b.set(50);
    b.set(80);
    EXPECT_TRUE(a.intersects(b.span()));
    EXPECT_FALSE(BitVec(100).span().intersects(a));
    BitVec c = a;
    c &= b.span();
    EXPECT_EQ(c.count(), 1u);
    EXPECT_TRUE(c.subset_of(a));
    c |= a.span();
    EXPECT_TRUE(c == a);
    c.subtract(b);
    EXPECT_FALSE(c.test(50));
}

TEST(Arena, AccountsBytesAndAlignment) {
    const std::uint64_t live0 = util::Arena::process_live_bytes();
    {
        util::Arena arena;
        auto* p = arena.alloc_array<std::uint64_t>(10);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % util::Arena::kAlignment,
                  0u);
        for (int i = 0; i < 10; ++i) EXPECT_EQ(p[i], 0u);
        EXPECT_GE(arena.bytes_allocated(), 80u);
        // A huge request gets its own slab, still aligned and accounted.
        auto* big = arena.alloc_array<std::uint64_t>(100'000);
        EXPECT_EQ(
            reinterpret_cast<std::uintptr_t>(big) % util::Arena::kAlignment, 0u);
        EXPECT_GT(util::Arena::process_live_bytes(), live0);
        EXPECT_GE(util::Arena::process_peak_bytes(),
                  util::Arena::process_live_bytes());
        EXPECT_EQ(arena.alloc_array<int>(0), nullptr);
    }
    // Destruction releases the slabs back out of the live count.
    EXPECT_EQ(util::Arena::process_live_bytes(), live0);
}

TEST(BitMatrix, RowSlicesAreIndependent) {
    util::Arena arena;
    util::BitMatrix m(arena, 4, 70);
    m.set(0, 69);
    m.set(3, 0);
    EXPECT_TRUE(m.test(0, 69));
    EXPECT_FALSE(m.test(1, 69));
    EXPECT_EQ(m.row(3).find_first(), 0u);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.cols(), 70u);
    EXPECT_GE(m.bytes(), 4u * 2u * 8u);
}

}  // namespace
}  // namespace stgcc
