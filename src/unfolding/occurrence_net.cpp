#include "unfolding/occurrence_net.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"

namespace stgcc::unf {

void PrefixBuilder::ensure_event_capacity(std::size_t n) {
    if (n <= event_capacity_) return;
    std::size_t cap = event_capacity_ == 0 ? 64 : event_capacity_;
    while (cap < n) cap *= 2;
    event_capacity_ = cap;
    for (auto& v : local_config_) v.resize(cap);
    for (auto& v : conflict_) v.resize(cap);
    for (auto& v : succ_) v.resize(cap);
}

ConditionId PrefixBuilder::add_condition(petri::PlaceId place, EventId producer) {
    STGCC_REQUIRE(place < sys_->net().num_places());
    const ConditionId id = static_cast<ConditionId>(conditions_.size());
    conditions_.push_back(Condition{place, producer, {}});
    if (producer != kNoEvent) {
        STGCC_REQUIRE(producer < events_.size());
        events_[producer].postset.push_back(id);
    }
    return id;
}

EventId PrefixBuilder::add_event(petri::TransitionId transition,
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

void PrefixBuilder::mark_cutoff(EventId e, EventId companion) {
    STGCC_REQUIRE(e < events_.size());
    STGCC_REQUIRE(!events_[e].cutoff);
    events_[e].cutoff = true;
    events_[e].companion = companion;
    ++num_cutoffs_;
}

Prefix PrefixBuilder::freeze() const {
    Prefix p;
    p.sys_ = sys_;
    const std::size_t nb = conditions_.size();
    const std::size_t ne = events_.size();
    p.num_conditions_ = nb;
    p.num_events_ = ne;
    p.num_cutoffs_ = num_cutoffs_;
    util::Arena& a = p.arena_;

    // Condition columns + consumer CSR.
    auto* place = a.alloc_array<petri::PlaceId>(nb);
    auto* producer = a.alloc_array<EventId>(nb);
    auto* cons_off = a.alloc_array<std::uint32_t>(nb + 1);
    std::size_t cons_total = 0;
    for (std::size_t b = 0; b < nb; ++b) cons_total += conditions_[b].consumers.size();
    auto* cons_dat = a.alloc_array<EventId>(cons_total);
    std::size_t ci = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        const Condition& c = conditions_[b];
        place[b] = c.place;
        producer[b] = c.producer;
        cons_off[b] = static_cast<std::uint32_t>(ci);
        for (EventId e : c.consumers) cons_dat[ci++] = e;
    }
    cons_off[nb] = static_cast<std::uint32_t>(ci);
    p.cond_place_ = {place, nb};
    p.cond_producer_ = {producer, nb};
    p.cons_off_ = {cons_off, nb + 1};
    p.cons_dat_ = {cons_dat, cons_total};

    // Event columns + preset/postset CSR.
    auto* transition = a.alloc_array<petri::TransitionId>(ne);
    auto* foata = a.alloc_array<std::uint32_t>(ne);
    auto* companion = a.alloc_array<EventId>(ne);
    auto* cutoff = a.alloc_array<std::uint8_t>(ne);
    auto* pre_off = a.alloc_array<std::uint32_t>(ne + 1);
    auto* post_off = a.alloc_array<std::uint32_t>(ne + 1);
    std::size_t pre_total = 0, post_total = 0;
    for (std::size_t e = 0; e < ne; ++e) {
        pre_total += events_[e].preset.size();
        post_total += events_[e].postset.size();
    }
    auto* pre_dat = a.alloc_array<ConditionId>(pre_total);
    auto* post_dat = a.alloc_array<ConditionId>(post_total);
    std::size_t pi = 0, qi = 0;
    for (std::size_t e = 0; e < ne; ++e) {
        const Event& ev = events_[e];
        transition[e] = ev.transition;
        foata[e] = ev.foata_level;
        companion[e] = ev.companion;
        cutoff[e] = ev.cutoff ? 1 : 0;
        pre_off[e] = static_cast<std::uint32_t>(pi);
        post_off[e] = static_cast<std::uint32_t>(qi);
        for (ConditionId b : ev.preset) pre_dat[pi++] = b;
        for (ConditionId b : ev.postset) post_dat[qi++] = b;
    }
    pre_off[ne] = static_cast<std::uint32_t>(pi);
    post_off[ne] = static_cast<std::uint32_t>(qi);
    p.ev_transition_ = {transition, ne};
    p.ev_foata_ = {foata, ne};
    p.ev_companion_ = {companion, ne};
    p.ev_cutoff_ = {cutoff, ne};
    p.pre_off_ = {pre_off, ne + 1};
    p.post_off_ = {post_off, ne + 1};
    p.pre_dat_ = {pre_dat, pre_total};
    p.post_dat_ = {post_dat, post_total};

    auto* mins = a.alloc_array<ConditionId>(min_conditions_.size());
    std::copy(min_conditions_.begin(), min_conditions_.end(), mins);
    p.min_conditions_ = {mins, min_conditions_.size()};

    // Relation slabs, truncated from capacity width to exactly ne bits (the
    // builder never sets a bit at or above num_events()).
    p.local_cfg_ = util::BitMatrix(a, ne, ne);
    p.conflict_ = util::BitMatrix(a, ne, ne);
    p.succ_ = util::BitMatrix(a, ne, ne);
    for (std::size_t e = 0; e < ne; ++e) {
        p.local_cfg_.mut_row(e).copy_prefix_of(local_config_[e]);
        p.conflict_.mut_row(e).copy_prefix_of(conflict_[e]);
        p.succ_.mut_row(e).copy_prefix_of(succ_[e]);
    }

    obs::gauge("mem.arena_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_live_bytes()));
    obs::gauge("mem.arena_peak_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_peak_bytes()));
    return p;
}

std::string Prefix::event_name(EventId e) const {
    STGCC_REQUIRE(e < num_events_);
    std::string name = "e";
    name += std::to_string(e + 1);
    name += ':';
    name += sys_->net().transition_name(ev_transition_[e]);
    return name;
}

std::string Prefix::condition_name(ConditionId b) const {
    STGCC_REQUIRE(b < num_conditions_);
    std::string name = "b";
    name += std::to_string(b + 1);
    name += ':';
    name += sys_->net().place_name(cond_place_[b]);
    return name;
}

std::string Prefix::to_dot() const {
    std::ostringstream out;
    out << "digraph prefix {\n  rankdir=TB;\n";
    for (ConditionId b = 0; b < num_conditions_; ++b)
        out << "  c" << b << " [shape=circle,label=\"" << condition_name(b)
            << "\"];\n";
    for (EventId e = 0; e < num_events_; ++e) {
        out << "  e" << e << " [shape=box,label=\"" << event_name(e) << "\"";
        if (ev_cutoff_[e]) out << ",peripheries=2,style=dashed";
        out << "];\n";
    }
    for (EventId e = 0; e < num_events_; ++e) {
        for (ConditionId b : event(e).preset)
            out << "  c" << b << " -> e" << e << ";\n";
        for (ConditionId b : event(e).postset)
            out << "  e" << e << " -> c" << b << ";\n";
    }
    out << "}\n";
    return out.str();
}

}  // namespace stgcc::unf
