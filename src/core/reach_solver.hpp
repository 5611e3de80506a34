// stgcc -- single-configuration reachability search (section 5 companion).
//
// Searches for ONE configuration of the prefix whose final marking
// satisfies a system of linear constraints (built from MarkingExpressions)
// and a non-linear leaf predicate.  Its variables are the prefix events,
// cut-offs pinned to 0 from the start, as in the pair solver.  The search
// only visits Unf-compatible vectors -- the same Theorem 1 closure
// propagation over the prefix rows as the pair solver -- with interval
// pruning and extreme-value forcing on every constraint.
//
// This realises the paper's "extended reachability analysis": any property
// P(M) expressible with linear constraints plus a decidable residue can be
// checked on the prefix without building the state graph.  The deadlock,
// reachability and coverability checkers in extended_checks.hpp are thin
// wrappers around it.
//
// It takes the pair search's SearchOptions: `max_nodes` bounds it and
// `cancel` is polled every kCancelPollMask+1 nodes, so a service deadline
// cuts a deadlock check like any coding check.  Branching tries x(e) = 1
// before x(e) = 0 on the lowest open event; the first witness found,
// and so every rendered deadlock trace, depends on that order.
#pragma once

#include <functional>
#include <limits>

#include "core/coding_problem.hpp"
#include "core/compat_solver.hpp"
#include "core/marking_expr.hpp"
#include "stg/results.hpp"

namespace stgcc::core {

inline constexpr int kNoBoundRs = std::numeric_limits<int>::min();

class ReachSolver {
public:
    explicit ReachSolver(const CodingProblem& problem, SearchOptions opts = {});

    /// Require lo <= expr(x) <= hi for every visited configuration; pass
    /// kNoBoundRs to drop a side.
    void add_constraint(const MarkingExpr& expr, int lo, int hi);

    /// Leaf predicate on a configuration (event set) satisfying all constraints;
    /// return true to accept and stop.
    using ConfigPredicate = std::function<bool(const BitVec&)>;

    struct Outcome {
        bool found = false;
        bool cancelled = false;  ///< search stopped by SearchOptions::cancel
        BitVec config;           ///< configuration (event set) when found
        stg::CheckStats stats;
    };

    [[nodiscard]] Outcome solve(const ConfigPredicate& accept);

private:
    static constexpr int kUnassigned = -1;

    struct ConstraintState {
        std::vector<LinearTerm> terms;
        int lo, hi;
        int fixed = 0;      ///< constant + assigned contributions
        int pos_slack = 0;  ///< max possible further increase
        int neg_slack = 0;  ///< max possible further decrease
    };

    bool assign(std::size_t idx, int value);
    bool constraint_feasible(const ConstraintState& c) const;
    void force_extreme(const ConstraintState& c, bool maximum);
    void undo_to(std::size_t mark);
    bool dfs(const ConfigPredicate& accept);

    const CodingProblem* problem_;
    SearchOptions opts_;
    std::vector<ConstraintState> constraints_;
    std::vector<std::vector<std::uint32_t>> constraints_of_var_;
    std::vector<std::int8_t> val_;
    std::vector<std::uint32_t> trail_;
    std::vector<std::pair<std::uint32_t, std::int8_t>> pending_;
    stg::CheckStats stats_;
    bool cancelled_ = false;
    Outcome outcome_;
};

}  // namespace stgcc::core
