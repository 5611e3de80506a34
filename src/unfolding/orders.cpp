#include "unfolding/orders.hpp"

#include <algorithm>

namespace stgcc::unf {

namespace {

OrderKey key_from_levels(const Prefix& prefix, BitSpan events,
                         petri::TransitionId extra_transition,
                         std::uint32_t extra_level) {
    OrderKey key;
    key.size = static_cast<std::uint32_t>(events.count());
    events.for_each([&](std::size_t e) {
        const Event& ev = prefix.event(static_cast<EventId>(e));
        key.parikh.push_back(ev.transition);
        if (key.foata.size() < ev.foata_level) key.foata.resize(ev.foata_level);
        key.foata[ev.foata_level - 1].push_back(ev.transition);
    });
    if (extra_transition != petri::kNoTransition) {
        ++key.size;
        key.parikh.push_back(extra_transition);
        if (key.foata.size() < extra_level) key.foata.resize(extra_level);
        key.foata[extra_level - 1].push_back(extra_transition);
    }
    std::sort(key.parikh.begin(), key.parikh.end());
    for (auto& level : key.foata) std::sort(level.begin(), level.end());
    return key;
}

}  // namespace

std::strong_ordering OrderKey::compare(const OrderKey& other) const {
    if (auto c = size <=> other.size; c != 0) return c;
    if (auto c = parikh <=> other.parikh; c != 0) return c;
    // Foata normal forms of same-size, same-Parikh configurations.
    const std::size_t levels = std::min(foata.size(), other.foata.size());
    for (std::size_t i = 0; i < levels; ++i)
        if (auto c = foata[i] <=> other.foata[i]; c != 0) return c;
    return foata.size() <=> other.foata.size();
}

OrderKey order_key_of_local_config(const Prefix& prefix, EventId e) {
    return key_from_levels(prefix, prefix.local_config(e), petri::kNoTransition, 0);
}

OrderKey order_key_of_candidate(const Prefix& prefix, BitSpan causes,
                                petri::TransitionId t, std::uint32_t cause_level) {
    return key_from_levels(prefix, causes, t, cause_level + 1);
}

}  // namespace stgcc::unf
