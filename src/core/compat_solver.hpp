// stgcc -- the paper's verification algorithm (sections 3-5 and 7).
//
// Searches for a pair of configurations (C', C'') of the prefix whose Parikh
// vectors x', x'' in {0,1}^q satisfy
//   * a per-signal linear relation on the code difference
//     D_z = sum_e delta(e) (x'_e - x''_e)   (=, <= or >= 0),
//   * x'(e) = x''(e) = 0 for cut-off events (built into the dense index),
//   * a caller-supplied non-linear separating predicate evaluated at leaves
//     (markings differ / Out sets differ / Nxt comparison).
//
// Instead of feeding the constraints to a standard solver, the search only
// ever visits Unf-compatible vectors (Theorem 1): assigning x(e)=1 forces
// its causal predecessors to 1 and its conflict set to 0; assigning x(e)=0
// forces its causal successors to 0 (the minimal compatible closure, MCC).
// Per-signal interval reasoning on D_z prunes and forces assignments.
//
// Distinct pairs are enumerated exactly once via a first-difference scheme:
// the outer loop fixes the first dense index d where the vectors differ
// (x'_d = 0 < x''_d = 1, with x'_j = x''_j linked for j < d), which both
// removes the C' = C'' diagonal and halves the symmetric search space --
// this realises the paper's "M' <lex M''" separating constraint at the
// level of Parikh vectors.
//
// When the STG is dynamically conflict-free, the section 7 optimisation
// restricts the search to set-ordered pairs C' subset C'' via the extra
// propagation x'_e <= x''_e (Proposition 1).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/coding_problem.hpp"
#include "sched/cancellation.hpp"
#include "stg/results.hpp"

namespace stgcc::core {

/// Relation required between the two code vectors, per signal:
///   Equal:     Code(x') =  Code(x'')   (USC / CSC conflict constraint)
///   LessEq:    Code(x') <= Code(x'')   componentwise (normalcy, R = <=)
///   GreaterEq: Code(x') >= Code(x'')   componentwise (normalcy, R = >=)
enum class CodeRelation { Equal, LessEq, GreaterEq };

/// Variable-selection strategy for the DFS.
enum class BranchHeuristic {
    /// Lowest unassigned index (x' before x'').  Predictable, good for
    /// conflict-carrying instances where solutions are shallow.
    IndexOrder,
    /// Prefer variables of the signal whose code-difference interval is
    /// tightest (fewest unassigned slots): contradictions surface earlier
    /// on exhaustive (conflict-free) instances.
    ConstrainedSignal,
};

struct SearchOptions {
    /// Apply the conflict-free optimisation when the problem allows it.
    bool use_conflict_free_optimisation = true;
    /// Abort (throw ModelError) after this many search nodes.
    std::size_t max_nodes = 500'000'000;
    /// Branch value tried first (0 biases towards small configurations).
    int first_branch_value = 0;
    BranchHeuristic heuristic = BranchHeuristic::IndexOrder;
    /// Cooperative cancellation, polled every kCancelPollMask+1 search
    /// nodes; a cancelled solve stops early with found == false and
    /// cancelled == true.  Empty token (the default): never cancelled.
    sched::CancellationToken cancel;
};

/// Leaf predicate: given the two dense configurations, decide whether they
/// constitute the sought conflict.  Returning true stops the search;
/// returning false continues enumeration.
using PairPredicate = std::function<bool(const BitVec& ca, const BitVec& cb)>;

struct SearchOutcome {
    bool found = false;
    bool cancelled = false;  ///< search stopped by SearchOptions::cancel
    BitVec ca, cb;           ///< dense configurations when found
    stg::CheckStats stats;
};

class CompatSolver {
public:
    struct SignalState {
        int fixed = 0;      ///< contribution of assigned variables to D_z
        int pos_slack = 0;  ///< number of unassigned vars with coefficient +1
        int neg_slack = 0;  ///< number of unassigned vars with coefficient -1
    };

    explicit CompatSolver(const CodingProblem& problem, SearchOptions opts = {});

    /// Run the search.  `accept` is consulted at every candidate pair that
    /// satisfies all linear constraints.
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      const PairPredicate& accept);

private:
    static constexpr int kUnassigned = -1;
    /// Cancellation poll period: every 1024 search nodes.
    static constexpr std::size_t kCancelPollMask = 1023;

    [[nodiscard]] int coefficient(int side, std::size_t idx) const {
        return side == 0 ? problem_->delta(idx) : -problem_->delta(idx);
    }

    bool assign(int side, std::size_t idx, int value);
    /// assign() with the bound-time stopwatch around it when observability
    /// is enabled (branch-vs-bound attribution in CheckStats).
    bool timed_assign(int side, std::size_t idx, int value);
    [[nodiscard]] bool signal_feasible(stg::SignalId z) const;
    bool force_extreme(stg::SignalId z, bool maximum);
    void undo_to(std::size_t mark);
    bool dfs(const PairPredicate& accept, std::size_t depth);
    [[nodiscard]] BitVec extract(int side) const;

    const CodingProblem* problem_;
    SearchOptions opts_;
    CodeRelation relation_ = CodeRelation::Equal;
    bool conflict_free_mode_ = false;
    bool cancelled_ = false;
    std::size_t first_diff_ = 0;  ///< current outer-loop index d

    // Mutable search state, fully re-initialised at the top of every
    // solve().  The per-signal interval state is seeded from the problem's
    // shared template (CodingProblem::initial_slacks); the per-signal
    // variable lists stay read-only in the problem.
    struct Workspace {
        std::vector<std::int8_t> val[2];
        std::vector<SignalState> signals;
        std::vector<VarRef> trail;
        std::vector<std::pair<VarRef, std::int8_t>> pending;
    } ws_;
    stg::CheckStats stats_;
    std::uint64_t bound_ns_ = 0;  ///< time inside assign() while obs is on
    SearchOutcome outcome_;
};

}  // namespace stgcc::core
