// stgcc -- extended reachability analysis on the prefix (paper section 5,
// and the deadlock-checking lineage of [8] that motivated the approach).
//
// All checks run on the unfolding prefix with the ReachSolver; none builds
// the state graph.  The net is safe by construction: the unfolder admits
// only 1-safe systems, and a Prefix comes only from the unfolder (the
// deadlock constraints sum preset token counts, which characterises
// enabledness only for safe nets).  They take the
// SearchOptions of every prefix search: `max_nodes` bounds the solve and
// `cancel` stops it early with found == false and cancelled == true.
#pragma once

#include <optional>

#include "core/coding_problem.hpp"
#include "core/compat_solver.hpp"
#include "stg/results.hpp"

namespace stgcc::core {

/// Result of a single-configuration search: the witness marking and an
/// execution path leading to it.
struct ReachabilityWitness {
    petri::Marking marking;
    std::vector<petri::TransitionId> trace;
};

struct ReachabilityResult {
    bool found = false;
    bool cancelled = false;  ///< search stopped by SearchOptions::cancel
    std::optional<ReachabilityWitness> witness;
    stg::CheckStats stats;
};

/// Is there a reachable deadlock (a marking enabling no transition)?
/// Rendered as one linear constraint per transition t:
///   sum_{s in *t} M(s) <= |*t| - 1.
[[nodiscard]] ReachabilityResult check_deadlock(const CodingProblem& problem,
                                                SearchOptions opts = {});

/// Is the given marking reachable?  Rendered as M(s) = m(s) for every s.
[[nodiscard]] ReachabilityResult check_reachable(const CodingProblem& problem,
                                                 const petri::Marking& target,
                                                 SearchOptions opts = {});

/// Is some marking with M(s) >= target(s) for all s reachable (coverability)?
[[nodiscard]] ReachabilityResult check_coverable(const CodingProblem& problem,
                                                 const petri::Marking& target,
                                                 SearchOptions opts = {});

}  // namespace stgcc::core
