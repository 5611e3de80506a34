#include "unfolding/orders.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::unf {
namespace {

TEST(OrderKey, SizeDominates) {
    OrderKey small, big;
    small.size = 2;
    small.parikh = {5, 7};
    big.size = 3;
    big.parikh = {0, 0, 0};
    EXPECT_TRUE(small < big);
    EXPECT_FALSE(big < small);
}

TEST(OrderKey, ParikhBreaksSizeTies) {
    OrderKey a, b;
    a.size = b.size = 2;
    a.parikh = {1, 3};
    b.parikh = {1, 4};
    EXPECT_TRUE(a < b);
    EXPECT_FALSE(b < a);
}

TEST(OrderKey, FoataBreaksParikhTies) {
    OrderKey a, b;
    a.size = b.size = 2;
    a.parikh = b.parikh = {1, 2};
    // a: both transitions at level 1; b: stacked in two levels.  The first
    // level decides: {1} is a proper prefix of {1,2}, so b compares smaller
    // (vector lexicographic order).
    a.foata = {{1, 2}};
    b.foata = {{1}, {2}};
    EXPECT_TRUE(b < a);
    EXPECT_NE(a.compare(b), std::strong_ordering::equal);
    EXPECT_EQ(a.compare(a), std::strong_ordering::equal);
}

TEST(OrderKey, TotalityOnRealPrefix) {
    // Keys of distinct local configurations in a prefix are comparable and
    // the relation is a strict weak order consistent with insertion order
    // for same-marking events (the cut-off's companion is smaller).
    auto model = stg::bench::token_ring(2);
    Prefix prefix = unfold(model.system());
    std::vector<OrderKey> keys;
    for (EventId e = 0; e < prefix.num_events(); ++e)
        keys.push_back(order_key_of_local_config(prefix, e));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = 0; j < keys.size(); ++j) {
            const auto c = keys[i].compare(keys[j]);
            const auto r = keys[j].compare(keys[i]);
            // Antisymmetry of the comparison.
            if (c == std::strong_ordering::less) {
                EXPECT_EQ(r, std::strong_ordering::greater);
            }
            if (c == std::strong_ordering::equal) {
                EXPECT_EQ(r, std::strong_ordering::equal);
            }
        }
    }
    // Every cut-off's companion has a strictly smaller key (adequate order).
    for (EventId e = 0; e < prefix.num_events(); ++e) {
        const auto& ev = prefix.event(e);
        if (!ev.cutoff || ev.companion == kNoEvent) continue;
        EXPECT_TRUE(keys[ev.companion] < keys[e])
            << prefix.event_name(ev.companion) << " !< " << prefix.event_name(e);
    }
}

TEST(OrderKey, CandidateKeyMatchesInsertedEvent) {
    // order_key_of_candidate on (causes, t) must equal the key of the local
    // configuration once the event exists.
    auto model = test::tiny_conflict();
    Prefix prefix = unfold(model.system());
    for (EventId e = 0; e < prefix.num_events(); ++e) {
        BitVec causes(prefix.local_config(e));
        causes.reset(e);
        std::uint32_t cause_level = 0;
        causes.for_each([&](std::size_t f) {
            cause_level = std::max(cause_level,
                                   prefix.event(static_cast<EventId>(f)).foata_level);
        });
        OrderKey candidate = order_key_of_candidate(
            prefix, causes, prefix.event(e).transition, cause_level);
        OrderKey actual = order_key_of_local_config(prefix, e);
        EXPECT_EQ(candidate.compare(actual), std::strong_ordering::equal)
            << prefix.event_name(e);
    }
}

}  // namespace
}  // namespace stgcc::unf
