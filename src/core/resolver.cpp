#include "core/resolver.hpp"

#include <set>
#include <unordered_map>

#include "core/checkers.hpp"
#include "core/conflict_cores.hpp"
#include "stg/insertion.hpp"
#include "stg/state_graph.hpp"
#include "unfolding/unfolder.hpp"

namespace stgcc::core {

namespace {

struct Analysis {
    bool valid = false;     ///< consistent, safe, deadlock-free
    bool resolved = false;  ///< the targeted property holds
    /// Exact number of conflicting state pairs (the progress metric the
    /// candidate search minimises).
    std::size_t conflict_pairs = 0;
};

/// Count conflicting state pairs on the state graph: pairs with equal codes
/// (USC target) or equal codes and different Out sets (CSC target).
std::size_t count_conflict_pairs(const stg::StateGraph& sg, bool target_usc) {
    std::unordered_map<BitVec, std::vector<petri::StateId>, BitVecHash> groups;
    for (petri::StateId s = 0; s < sg.num_states(); ++s)
        groups[sg.code(s)].push_back(s);
    std::size_t pairs = 0;
    for (const auto& [code, states] : groups) {
        if (states.size() < 2) continue;
        if (target_usc) {
            pairs += states.size() * (states.size() - 1) / 2;
            continue;
        }
        for (std::size_t i = 0; i < states.size(); ++i)
            for (std::size_t j = i + 1; j < states.size(); ++j)
                if (!(sg.out_set(states[i]) == sg.out_set(states[j]))) ++pairs;
    }
    return pairs;
}

/// Decide a candidate from its state graph alone: it answers safety,
/// consistency and deadlock-freedom as exactly as the prefix checks do, and
/// the conflict-pair count needs it anyway.
Analysis analyse(const stg::Stg& stg, const ResolveOptions& opts) {
    Analysis a;
    try {
        stg::StateGraph sg(stg);
        if (!sg.graph().is_safe() || !sg.consistent() ||
            !sg.graph().deadlocks().empty())
            return a;
        a.valid = true;
        a.conflict_pairs = count_conflict_pairs(sg, opts.target_usc);
        a.resolved = a.conflict_pairs == 0;
    } catch (const ModelError&) {
        a.valid = false;
    }
    return a;
}

}  // namespace

ResolutionResult resolve_csc(const stg::Stg& input, ResolveOptions opts) {
    ResolutionResult result;
    result.stg = input;  // copy we refine

    Analysis current = analyse(result.stg, opts);
    if (!current.valid)
        throw ModelError("resolve_csc requires a consistent, safe, "
                         "deadlock-free STG");

    for (int round = 0; round < opts.max_signals && !current.resolved;
         ++round) {
        // Gather cores of the current STG to focus the candidate pairs.
        unf::Prefix prefix = unf::unfold(result.stg.system());
        CodingProblem problem(result.stg, prefix);
        auto cores = collect_conflict_cores(problem, opts.max_cores);
        if (cores.cores.empty()) break;  // USC holds; nothing to split

        // Candidate insertion points: transitions occurring in cores (by
        // decreasing height) and the places around them -- place-based
        // insertion covers all branches merging through a place, which
        // conflicts across alternative branches need.
        enum class Kind { AfterTransition, AfterPlace, BeforePlace, AfterChoiceSet };
        struct Point {
            Kind kind;
            std::uint32_t id;
        };
        std::vector<Point> hot, cold;
        {
            std::vector<std::pair<std::size_t, petri::TransitionId>> ranked;
            std::set<petri::TransitionId> seen;
            for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
                if (cores.height[e] == 0) continue;
                const petri::TransitionId t = prefix.event(e).transition;
                if (seen.insert(t).second)
                    ranked.emplace_back(cores.height[e], t);
            }
            std::sort(ranked.rbegin(), ranked.rend());
            std::set<petri::PlaceId> hot_places;
            const petri::Net& net = result.stg.net();
            for (auto& [h, t] : ranked) {
                hot.push_back(Point{Kind::AfterTransition, t});
                for (petri::PlaceId p : net.pre(t)) hot_places.insert(p);
                for (petri::PlaceId p : net.post(t)) hot_places.insert(p);
            }
            for (petri::PlaceId p : hot_places) {
                if (net.post_of_place(p).size() >= 2)
                    hot.push_back(Point{Kind::AfterChoiceSet, p});
                if (!net.pre_of_place(p).empty())
                    hot.push_back(Point{Kind::BeforePlace, p});
                hot.push_back(Point{Kind::AfterPlace, p});
            }
            for (petri::TransitionId t = 0; t < net.num_transitions(); ++t)
                if (!seen.count(t)) cold.push_back(Point{Kind::AfterTransition, t});
            for (petri::PlaceId p = 0; p < net.num_places(); ++p)
                if (!hot_places.count(p)) {
                    if (net.post_of_place(p).size() >= 2)
                        cold.push_back(Point{Kind::AfterChoiceSet, p});
                    if (!net.pre_of_place(p).empty())
                        cold.push_back(Point{Kind::BeforePlace, p});
                    cold.push_back(Point{Kind::AfterPlace, p});
                }
        }

        // Candidate pairs: core-region points first, then pairs with one
        // leg anywhere in the net -- a resolving toggle sometimes must fall
        // outside the cores (e.g. the second phase of a repeated burst).
        std::vector<std::pair<Point, Point>> pairs;
        for (const auto& p1 : hot)
            for (const auto& p2 : hot)
                if (p1.kind != p2.kind || p1.id != p2.id)
                    pairs.emplace_back(p1, p2);
        for (const auto& p1 : hot)
            for (const auto& p2 : cold) {
                pairs.emplace_back(p1, p2);
                pairs.emplace_back(p2, p1);
            }

        const std::string signal_name = "csc" + std::to_string(round);
        // Every candidate of this round inserts into the same copy of the
        // net with the new signal declared.
        const auto [base, z] =
            stg::with_internal_signal(result.stg, signal_name);
        stg::Stg best;
        Analysis best_analysis;
        ResolutionStep best_step;
        std::size_t tried = 0;
        bool have_best = false;

        const petri::Net& net = result.stg.net();
        auto point_name = [&](const Point& pt) -> std::string {
            switch (pt.kind) {
                case Kind::AfterTransition: return net.transition_name(pt.id);
                case Kind::AfterPlace: return "place " + net.place_name(pt.id);
                case Kind::BeforePlace: return "the producers of " + net.place_name(pt.id);
                case Kind::AfterChoiceSet:
                    return "each consumer of " + net.place_name(pt.id);
            }
            return "?";
        };
        auto apply = [&](const stg::Stg& in, const Point& pt, stg::Label label,
                         const std::string& name) {
            switch (pt.kind) {
                case Kind::AfterPlace:
                    return stg::insert_signal_after_place(in, pt.id, label, name);
                case Kind::BeforePlace:
                    return stg::insert_signal_before_place(in, pt.id, label, name);
                case Kind::AfterChoiceSet: {
                    const auto consumers = net.post_of_place(pt.id);
                    return stg::insert_signal_after_transitions(
                        in,
                        std::vector<petri::TransitionId>(consumers.begin(),
                                                         consumers.end()),
                        label, name);
                }
                default:
                    return stg::insert_signal_transition(in, pt.id, label, name);
            }
        };

        for (const auto& [p1, p2] : pairs) {
            {
                if (tried >= opts.max_candidates) break;
                ++tried;
                stg::Stg plus = apply(base, p1,
                                      stg::Label{z, stg::Polarity::Rising},
                                      signal_name + "+");
                stg::Stg candidate = apply(plus, p2,
                                           stg::Label{z, stg::Polarity::Falling},
                                           signal_name + "-");
                Analysis a = analyse(candidate, opts);
                if (!a.valid) continue;
                if (!a.resolved && a.conflict_pairs >= current.conflict_pairs) continue;
                const bool better =
                    !have_best ||
                    (a.resolved && !best_analysis.resolved) ||
                    (a.resolved == best_analysis.resolved &&
                     a.conflict_pairs < best_analysis.conflict_pairs);
                if (better) {
                    best = candidate;
                    best_analysis = a;
                    best_step = ResolutionStep{signal_name, point_name(p1),
                                               point_name(p2)};
                    have_best = true;
                }
            }
            if (have_best && best_analysis.resolved) break;
        }
        if (!have_best) break;  // no improving insertion found
        result.stg = std::move(best);
        result.steps.push_back(std::move(best_step));
        current = best_analysis;
    }
    result.resolved = current.resolved;
    return result;
}

}  // namespace stgcc::core
