#include "core/extended_checks.hpp"

#include "core/reach_solver.hpp"
#include "unfolding/configuration.hpp"

namespace stgcc::unf {

namespace {

/// Can conditions b1 and b2 be marked simultaneously?  Exactly when the
/// union of their producers' local configurations is a configuration that
/// consumes neither.
bool concurrently_markable(const Prefix& prefix, ConditionId b1, ConditionId b2) {
    const EventId p1 = prefix.condition(b1).producer;
    const EventId p2 = prefix.condition(b2).producer;
    if (p1 != kNoEvent && p2 != kNoEvent && p1 != p2 &&
        prefix.conflicts(p1).test(p2))
        return false;
    BitVec cfg = prefix.make_event_set();
    if (p1 != kNoEvent) cfg |= prefix.local_config(p1);
    if (p2 != kNoEvent) cfg |= prefix.local_config(p2);
    for (EventId f : prefix.condition(b1).consumers)
        if (cfg.test(f)) return false;
    for (EventId f : prefix.condition(b2).consumers)
        if (cfg.test(f)) return false;
    return true;
}

}  // namespace

bool is_safe(const Prefix& prefix) {
    const std::size_t num_places = prefix.system().net().num_places();
    std::vector<std::vector<ConditionId>> by_place(num_places);
    for (ConditionId b = 0; b < prefix.num_conditions(); ++b)
        by_place[prefix.condition(b).place].push_back(b);
    for (const auto& conditions : by_place)
        for (std::size_t i = 0; i < conditions.size(); ++i)
            for (std::size_t j = i + 1; j < conditions.size(); ++j)
                if (concurrently_markable(prefix, conditions[i], conditions[j]))
                    return false;
    return true;
}

}  // namespace stgcc::unf

namespace stgcc::core {

namespace {

void require_safe(const CodingProblem& problem) {
    if (!unf::is_safe(problem.prefix()))
        throw ModelError(
            "extended reachability checks require a safe net (the preset-sum "
            "deadlock constraints are exact only for safe nets)");
}

ReachabilityResult run(const CodingProblem& problem, ReachSolver& solver) {
    ReachabilityResult result;
    auto outcome = solver.solve([](const BitVec&) { return true; });
    result.cancelled = outcome.cancelled;
    result.stats = outcome.stats;
    if (outcome.found) {
        result.found = true;
        ReachabilityWitness w;
        w.marking = unf::marking_of(problem.prefix(), outcome.config);
        w.trace = unf::firing_sequence_of(problem.prefix(), outcome.config);
        result.witness = std::move(w);
    }
    return result;
}

}  // namespace

ReachabilityResult check_deadlock(const CodingProblem& problem,
                                  SearchOptions opts) {
    require_safe(problem);
    MarkingExpressions exprs(problem);
    ReachSolver solver(problem, std::move(opts));
    const petri::Net& net = problem.prefix().system().net();
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        std::vector<petri::PlaceId> preset(net.pre(t).begin(), net.pre(t).end());
        MarkingExpr sum = exprs.sum(preset);
        solver.add_constraint(sum, kNoBoundRs,
                              static_cast<int>(preset.size()) - 1);
    }
    return run(problem, solver);
}

ReachabilityResult check_reachable(const CodingProblem& problem,
                                   const petri::Marking& target,
                                   SearchOptions opts) {
    require_safe(problem);
    const petri::Net& net = problem.prefix().system().net();
    STGCC_REQUIRE(target.num_places() == net.num_places());
    MarkingExpressions exprs(problem);
    ReachSolver solver(problem, std::move(opts));
    for (petri::PlaceId s = 0; s < net.num_places(); ++s) {
        const int m = static_cast<int>(target[s]);
        solver.add_constraint(exprs.place(s), m, m);
    }
    return run(problem, solver);
}

ReachabilityResult check_coverable(const CodingProblem& problem,
                                   const petri::Marking& target,
                                   SearchOptions opts) {
    require_safe(problem);
    const petri::Net& net = problem.prefix().system().net();
    STGCC_REQUIRE(target.num_places() == net.num_places());
    MarkingExpressions exprs(problem);
    ReachSolver solver(problem, std::move(opts));
    for (petri::PlaceId s = 0; s < net.num_places(); ++s) {
        if (target[s] == 0) continue;
        solver.add_constraint(exprs.place(s), static_cast<int>(target[s]),
                              kNoBoundRs);
    }
    return run(problem, solver);
}

}  // namespace stgcc::core
