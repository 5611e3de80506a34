#include "stg/contraction.hpp"

#include <algorithm>
#include <set>

#include "obs/trace.hpp"

namespace stgcc::stg {

namespace {

/// Mutable working copy of the net (petri::Net does not support removal).
struct WorkNet {
    struct Place {
        std::string name;
        std::uint32_t tokens = 0;
        std::set<std::size_t> pre, post;  // transition indices
        bool alive = true;
    };
    struct Transition {
        std::string name;
        std::optional<Label> label;
        std::set<std::size_t> pre, post;  // place indices
        bool alive = true;
    };
    std::vector<Place> places;
    std::vector<Transition> transitions;
};

WorkNet to_work_net(const Stg& stg) {
    WorkNet w;
    const petri::Net& net = stg.net();
    w.places.resize(net.num_places());
    w.transitions.resize(net.num_transitions());
    for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
        w.places[p].name = net.place_name(p);
        w.places[p].tokens = stg.system().initial_marking()[p];
    }
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        w.transitions[t].name = net.transition_name(t);
        if (!stg.is_dummy(t)) w.transitions[t].label = stg.label(t);
        for (petri::PlaceId p : net.pre(t)) {
            w.transitions[t].pre.insert(p);
            w.places[p].post.insert(t);
        }
        for (petri::PlaceId p : net.post(t)) {
            w.transitions[t].post.insert(p);
            w.places[p].pre.insert(t);
        }
    }
    return w;
}

/// Drop the self-loops of dummy t on constant places: a marked place that
/// every adjacent transition both consumes and produces keeps its marking
/// forever, so it never disables t and never distinguishes two markings.
void drop_constant_loops(WorkNet& w, std::size_t t) {
    auto& tr = w.transitions[t];
    if (!tr.alive || tr.label.has_value()) return;
    const std::set<std::size_t> pre = tr.pre;
    for (std::size_t p : pre) {
        WorkNet::Place& place = w.places[p];
        if (!tr.post.count(p) || place.tokens == 0 || place.pre != place.post)
            continue;
        place.pre.erase(t);
        place.post.erase(t);
        tr.pre.erase(p);
        tr.post.erase(p);
    }
}

bool contractable(const WorkNet& w, std::size_t t) {
    const auto& tr = w.transitions[t];
    if (!tr.alive || tr.label.has_value()) return false;
    if (tr.pre.empty() || tr.post.empty()) return false;
    for (std::size_t p : tr.pre) {
        if (tr.post.count(p)) return false;  // self-loop
        if (w.places[p].post.size() != 1) return false;  // type-1 security
    }
    // Arc-weight soundness: a transition adjacent to both p in *t and q in
    // t* would need a weight-2 arc to the product place; ordinary nets
    // cannot express that, so such dummies are left alone.
    for (std::size_t p : tr.pre) {
        for (std::size_t q : tr.post) {
            for (std::size_t u : w.places[p].pre)
                if (w.places[q].pre.count(u)) return false;
            for (std::size_t u : w.places[p].post)
                if (u != t && w.places[q].post.count(u)) return false;
        }
    }
    return true;
}

void contract(WorkNet& w, std::size_t t) {
    auto& tr = w.transitions[t];
    // Create the product places.
    for (std::size_t p : tr.pre) {
        for (std::size_t q : tr.post) {
            WorkNet::Place r;
            r.name = "(" + w.places[p].name + "*" + w.places[q].name + ")";
            r.tokens = w.places[p].tokens + w.places[q].tokens;
            for (std::size_t u : w.places[p].pre) r.pre.insert(u);
            for (std::size_t u : w.places[q].pre)
                if (u != t) r.pre.insert(u);
            for (std::size_t u : w.places[p].post)
                if (u != t) r.post.insert(u);
            for (std::size_t u : w.places[q].post) r.post.insert(u);
            const std::size_t rid = w.places.size();
            w.places.push_back(std::move(r));
            for (std::size_t u : w.places[rid].pre)
                w.transitions[u].post.insert(rid);
            for (std::size_t u : w.places[rid].post)
                w.transitions[u].pre.insert(rid);
        }
    }
    // Remove t and the old places.
    auto kill_place = [&](std::size_t p) {
        w.places[p].alive = false;
        for (std::size_t u : w.places[p].pre) w.transitions[u].post.erase(p);
        for (std::size_t u : w.places[p].post) w.transitions[u].pre.erase(p);
    };
    const std::set<std::size_t> pre = tr.pre, post = tr.post;
    tr.alive = false;
    for (std::size_t p : pre) kill_place(p);
    for (std::size_t q : post) kill_place(q);
    // Detach t from any leftovers (already handled via kill_place).
    tr.pre.clear();
    tr.post.clear();
}

Stg to_stg(const Stg& original, const WorkNet& w) {
    Stg out;
    out.set_name(original.name());
    for (SignalId z = 0; z < original.num_signals(); ++z)
        out.add_signal(original.signal_name(z), original.signal_kind(z));

    std::vector<petri::PlaceId> place_map(w.places.size(), petri::kNoPlace);
    std::vector<petri::TransitionId> trans_map(w.transitions.size(),
                                               petri::kNoTransition);
    for (std::size_t p = 0; p < w.places.size(); ++p)
        if (w.places[p].alive) place_map[p] = out.add_place(w.places[p].name);
    for (std::size_t t = 0; t < w.transitions.size(); ++t) {
        if (!w.transitions[t].alive) continue;
        trans_map[t] = w.transitions[t].label
                           ? out.add_transition(w.transitions[t].name,
                                                *w.transitions[t].label)
                           : out.add_dummy_transition(w.transitions[t].name);
    }
    for (std::size_t t = 0; t < w.transitions.size(); ++t) {
        if (!w.transitions[t].alive) continue;
        for (std::size_t p : w.transitions[t].pre)
            out.add_arc_pt(place_map[p], trans_map[t]);
        for (std::size_t p : w.transitions[t].post)
            out.add_arc_tp(trans_map[t], place_map[p]);
    }
    petri::Marking m0(out.net().num_places());
    for (std::size_t p = 0; p < w.places.size(); ++p)
        if (w.places[p].alive) m0.set(place_map[p], w.places[p].tokens);
    out.set_initial_marking(std::move(m0));
    return out;
}

}  // namespace

bool is_contractable(const Stg& stg, petri::TransitionId t) {
    STGCC_REQUIRE(t < stg.net().num_transitions());
    WorkNet w = to_work_net(stg);
    drop_constant_loops(w, t);
    return contractable(w, t);
}

ContractionResult contract_dummies(const Stg& input) {
    obs::Span span("reduce");
    span.attr("stg", input.name());
    WorkNet w = to_work_net(input);
    ContractionResult result;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t t = 0; t < w.transitions.size(); ++t) {
            drop_constant_loops(w, t);
            if (contractable(w, t)) {
                contract(w, t);
                ++result.contracted;
                progress = true;
            }
        }
    }
    // Transitions are never added, and to_stg keeps the survivors in
    // order, so the map is the list of survivors.
    for (std::size_t t = 0; t < w.transitions.size(); ++t) {
        const auto id = static_cast<petri::TransitionId>(t);
        (w.transitions[t].alive ? result.map.to_input : result.map.removed)
            .push_back(id);
    }
    result.stg = to_stg(input, w);
    span.attr("transitions_removed", result.contracted);
    return result;
}

std::optional<TranslatedState> WitnessMap::translate(
    const Stg& input, const std::vector<petri::TransitionId>& trace) const {
    const petri::NetSystem& sys = input.system();
    TranslatedState out;
    out.marking = sys.initial_marking();
    out.trace.reserve(trace.size());
    // Iteration bound against pathological removed-dummy cycles: secure
    // contraction cannot remove a token-generating loop, so any correct
    // replay fires each removed dummy a bounded number of times between
    // visible steps.  Exceeding the bound means a soundness bug upstream.
    const std::size_t bound = 64 * (removed.size() + 1) + trace.size();
    std::size_t silent_fired = 0;
    const auto fire_first_enabled_removed = [&]() -> bool {
        for (petri::TransitionId d : removed) {
            if (sys.enabled(out.marking, d)) {
                out.marking = sys.fire(out.marking, d);
                out.trace.push_back(d);
                return true;
            }
        }
        return false;
    };
    for (petri::TransitionId ct : trace) {
        if (ct >= to_input.size()) return std::nullopt;
        const petri::TransitionId it = to_input[ct];
        while (!sys.enabled(out.marking, it)) {
            if (++silent_fired > bound) return std::nullopt;
            if (!fire_first_enabled_removed()) return std::nullopt;
        }
        out.marking = sys.fire(out.marking, it);
        out.trace.push_back(it);
    }
    // Tau-closure: advance past still-enabled removed dummies so the final
    // marking is the canonical representative of its silent-move class
    // (type-1 security: firing a removed dummy never disables anything).
    while (fire_first_enabled_removed())
        if (++silent_fired > bound) return std::nullopt;
    return out;
}

}  // namespace stgcc::stg
