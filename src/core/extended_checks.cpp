#include "core/extended_checks.hpp"

#include "core/reach_solver.hpp"
#include "unfolding/configuration.hpp"

namespace stgcc::core {

namespace {

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
