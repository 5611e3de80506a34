#include "unfolding/occurrence_net.hpp"

#include <algorithm>
#include <sstream>

namespace stgcc::unf {

void Prefix::ensure_event_capacity(std::size_t n) {
    if (n <= event_capacity_) return;
    std::size_t cap = event_capacity_ == 0 ? 64 : event_capacity_;
    while (cap < n) cap *= 2;
    event_capacity_ = cap;
    for (auto& v : local_config_) v.resize(cap);
    for (auto& v : conflict_) v.resize(cap);
    for (auto& v : succ_) v.resize(cap);
}

ConditionId Prefix::add_condition(petri::PlaceId place, EventId producer) {
    STGCC_REQUIRE(place < sys_->net().num_places());
    const ConditionId id = static_cast<ConditionId>(conditions_.size());
    conditions_.push_back(Condition{place, producer, {}});
    if (producer == kNoEvent) {
        min_conditions_.push_back(id);
    } else {
        STGCC_REQUIRE(producer < events_.size());
        events_[producer].postset.push_back(id);
    }
    return id;
}

EventId Prefix::add_event(petri::TransitionId transition,
                                 std::vector<ConditionId> preset) {
    STGCC_REQUIRE(transition < sys_->net().num_transitions());
    STGCC_REQUIRE(!preset.empty());
    const EventId id = static_cast<EventId>(events_.size());
    ensure_event_capacity(id + 1);

    // Local configuration: union of the producers' local configurations,
    // plus the event itself.
    BitVec cfg(event_capacity_);
    std::uint32_t level = 1;
    for (ConditionId b : preset) {
        STGCC_REQUIRE(b < conditions_.size());
        const EventId prod = conditions_[b].producer;
        if (prod != kNoEvent) {
            cfg |= local_config_[prod];
            level = std::max(level, events_[prod].foata_level + 1);
        }
    }
    cfg.set(id);

    // Conflict set: conflicts inherited from causal predecessors, plus the
    // causal successors of every event sharing a preset condition with us.
    BitVec cf(event_capacity_);
    cfg.for_each([&](std::size_t f) {
        if (f != id) cf |= conflict_[f];
    });
    for (ConditionId b : preset)
        for (EventId other : conditions_[b].consumers)
            cf |= succ_[other];
    cf.subtract(cfg);  // defensive: [e] is conflict-free by construction

    Event ev;
    ev.transition = transition;
    ev.preset = preset;
    ev.foata_level = level;
    events_.push_back(std::move(ev));
    local_config_.push_back(std::move(cfg));
    conflict_.push_back(std::move(cf));

    // Successor sets: e is a successor of every event in [e].
    BitVec self(event_capacity_);
    self.set(id);
    succ_.push_back(std::move(self));
    local_config_[id].for_each([&](std::size_t f) {
        if (f != id) succ_[f].set(id);
    });

    // Symmetrise the conflict relation.
    conflict_[id].for_each([&](std::size_t g) { conflict_[g].set(id); });

    // Register as consumer of the preset conditions.
    for (ConditionId b : preset) conditions_[b].consumers.push_back(id);
    return id;
}

void Prefix::mark_cutoff(EventId e, EventId companion) {
    STGCC_REQUIRE(e < events_.size());
    STGCC_REQUIRE(!events_[e].cutoff);
    events_[e].cutoff = true;
    events_[e].companion = companion;
    ++num_cutoffs_;
}

std::string Prefix::event_name(EventId e) const {
    std::string name = "e";
    name += std::to_string(e + 1);
    name += ':';
    name += sys_->net().transition_name(event(e).transition);
    return name;
}

std::string Prefix::condition_name(ConditionId b) const {
    std::string name = "b";
    name += std::to_string(b + 1);
    name += ':';
    name += sys_->net().place_name(condition(b).place);
    return name;
}

std::string Prefix::to_dot() const {
    std::ostringstream out;
    out << "digraph prefix {\n  rankdir=TB;\n";
    for (ConditionId b = 0; b < num_conditions(); ++b)
        out << "  c" << b << " [shape=circle,label=\"" << condition_name(b)
            << "\"];\n";
    for (EventId e = 0; e < num_events(); ++e) {
        out << "  e" << e << " [shape=box,label=\"" << event_name(e) << "\"";
        if (events_[e].cutoff) out << ",peripheries=2,style=dashed";
        out << "];\n";
    }
    for (EventId e = 0; e < num_events(); ++e) {
        for (ConditionId b : events_[e].preset)
            out << "  c" << b << " -> e" << e << ";\n";
        for (ConditionId b : events_[e].postset)
            out << "  e" << e << " -> c" << b << ";\n";
    }
    out << "}\n";
    return out.str();
}

}  // namespace stgcc::unf
