#include "unfolding/configuration.hpp"

#include <algorithm>

namespace stgcc::unf {

bool is_configuration(const Prefix& prefix, BitSpan events) {
    bool ok = true;
    events.for_each([&](std::size_t e) {
        if (!ok || e >= prefix.num_events()) {
            ok = false;
            return;
        }
        // Causal closure: [e] must be contained in the set.
        if (!prefix.local_config(static_cast<EventId>(e)).subset_of(events)) ok = false;
        // Conflict-freeness.
        if (prefix.conflicts(static_cast<EventId>(e)).intersects(events)) ok = false;
    });
    return ok;
}

petri::Marking marking_of(const Prefix& prefix, BitSpan events) {
    // The marking equation M0 + post(C) - pre(C) over the transitions of
    // C's events, exact on configurations (section 2.2): every token a
    // preset consumes is in M0 or some postset, so all postsets go in first.
    const petri::Net& net = prefix.system().net();
    petri::Marking m = prefix.system().initial_marking();
    events.for_each([&](std::size_t e) {
        for (petri::PlaceId p : net.post(prefix.event(static_cast<EventId>(e)).transition))
            m.add(p);
    });
    events.for_each([&](std::size_t e) {
        for (petri::PlaceId p : net.pre(prefix.event(static_cast<EventId>(e)).transition))
            m.remove(p);
    });
    return m;
}

std::vector<EventId> linearize(const Prefix& prefix, BitSpan events) {
    std::vector<EventId> order;
    events.for_each([&](std::size_t e) { order.push_back(static_cast<EventId>(e)); });
    // Sorting by (Foata level, id) respects causality: a cause always has a
    // strictly smaller level than its effect.
    std::sort(order.begin(), order.end(), [&](EventId a, EventId b) {
        const auto la = prefix.event(a).foata_level;
        const auto lb = prefix.event(b).foata_level;
        return la != lb ? la < lb : a < b;
    });
    return order;
}

petri::ParikhVector parikh_of(const Prefix& prefix, BitSpan events) {
    petri::ParikhVector x(prefix.system().net().num_transitions(), 0);
    events.for_each(
        [&](std::size_t e) { ++x[prefix.event(static_cast<EventId>(e)).transition]; });
    return x;
}

std::vector<petri::TransitionId> firing_sequence_of(const Prefix& prefix,
                                                    BitSpan events) {
    std::vector<petri::TransitionId> seq;
    for (EventId e : linearize(prefix, events))
        seq.push_back(prefix.event(e).transition);
    return seq;
}

}  // namespace stgcc::unf
