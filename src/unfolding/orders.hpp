// stgcc -- adequate orders on configurations for prefix construction.
//
// The Unfolder processes possible extensions in the total adequate order of
// Esparza, Roemer and Vogler: compare configuration size first, then the
// Parikh vectors (as sorted transition-id sequences, lexicographically),
// then the Foata normal forms level by level.  A total adequate order keeps
// the complete prefix at most as large as the reachability graph.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "unfolding/occurrence_net.hpp"

namespace stgcc::unf {

struct OrderKey {
    std::uint32_t size = 0;
    /// Sorted multiset of original-net transition ids of the configuration.
    std::vector<petri::TransitionId> parikh;
    /// Foata normal form: per causal level, the sorted transition ids.
    std::vector<std::vector<petri::TransitionId>> foata;

    [[nodiscard]] std::strong_ordering compare(const OrderKey& other) const;

    friend bool operator<(const OrderKey& a, const OrderKey& b) {
        return a.compare(b) == std::strong_ordering::less;
    }
    friend bool operator==(const OrderKey& a, const OrderKey& b) {
        return a.compare(b) == std::strong_ordering::equal;
    }
};

/// Order key of an existing event's local configuration.
[[nodiscard]] OrderKey order_key_of_local_config(const Prefix& prefix, EventId e);

/// Order key of a candidate event (not yet inserted): its configuration is
/// `causes` (the union of the producers' local configurations) plus a new
/// event labelled `t` one level above `cause_level`.
[[nodiscard]] OrderKey order_key_of_candidate(const Prefix& prefix, BitSpan causes,
                                              petri::TransitionId t,
                                              std::uint32_t cause_level);

}  // namespace stgcc::unf
