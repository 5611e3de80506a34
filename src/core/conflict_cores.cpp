#include "core/conflict_cores.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace stgcc::core {

ConflictCoreReport collect_conflict_cores(const CodingProblem& problem,
                                          std::size_t max_cores,
                                          SearchOptions opts) {
    ConflictCoreReport report;
    const unf::Prefix& prefix = problem.prefix();
    const std::vector<stg::SignalId> outputs =
        problem.stg().circuit_driven_signals();
    std::set<std::string> seen;

    CompatSolver solver(problem, opts);
    auto outcome = solver.solve(
        CodeRelation::Equal, [&](const LeafView& a, const LeafView& b) {
            if (a.places == b.places) return false;  // not a USC conflict
            BitVec core = problem.to_event_set(a.config);
            core ^= problem.to_event_set(b.config);
            if (seen.insert(core.to_string()).second) {
                ConflictCore c;
                c.events = std::move(core);
                // The Out sets differ iff some circuit-driven signal is
                // enabled at exactly one of the two markings.
                c.is_csc = std::any_of(
                    outputs.begin(), outputs.end(), [&](stg::SignalId z) {
                        return problem.enabled(a.places, z) !=
                               problem.enabled(b.places, z);
                    });
                report.cores.push_back(std::move(c));
            }
            // Stop only when the core budget is exhausted.
            return report.cores.size() >= max_cores;
        });
    report.truncated = outcome.found;  // stopped early at max_cores
    report.stats = outcome.stats;

    report.height.assign(prefix.num_events(), 0);
    for (const ConflictCore& c : report.cores)
        c.events.for_each([&](std::size_t e) { ++report.height[e]; });
    return report;
}

std::string format_height_map(const CodingProblem& problem,
                              const ConflictCoreReport& report) {
    const unf::Prefix& prefix = problem.prefix();
    std::ostringstream out;
    out << report.cores.size() << " conflict core(s)"
        << (report.truncated ? " (truncated)" : "") << "\n";
    for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
        if (report.height[e] == 0) continue;
        out << "  " << prefix.event_name(e) << "  ";
        for (std::size_t k = 0; k < report.height[e]; ++k) out << '#';
        out << "  " << report.height[e] << "\n";
    }
    return out.str();
}

}  // namespace stgcc::core
