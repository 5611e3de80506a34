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
// Inside a first-difference subtree the search branches on the highest
// dense index still open on either side (x' before x'', value 0 first).
// Dense indices follow the adequate order, so x(e) = 1 on the highest open
// event fixes the largest local configuration and its conflict set in one
// decision.  The leaves of an exhaustive search are the solutions, whatever
// the order; the number of nodes is what the order decides.
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

/// Cancellation poll period of both prefix solvers: every 1024 search nodes.
inline constexpr std::size_t kCancelPollMask = 1023;

/// Options of every prefix search: the pair search (CompatSolver) and the
/// section 5 single-configuration search (ReachSolver).
struct SearchOptions {
    /// Apply the conflict-free optimisation when the problem allows it
    /// (pair search only).
    bool use_conflict_free_optimisation = true;
    /// Abort (throw ModelError) after this many search nodes.
    std::size_t max_nodes = 500'000'000;
    /// Cooperative cancellation, polled every kCancelPollMask+1 search
    /// nodes by CompatSolver and ReachSolver alike; a cancelled solve stops
    /// early with found == false and cancelled == true, so a deadline
    /// armed on the token's source cuts either search.  Empty token (the
    /// default): never cancelled.
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
    explicit CompatSolver(const CodingProblem& problem, SearchOptions opts = {});

    /// Run the search.  `accept` is consulted at every candidate pair that
    /// satisfies all linear constraints.
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      const PairPredicate& accept);

private:
    using Word = BitSpan::Word;
    static constexpr std::size_t kWordBits = BitSpan::kWordBits;

    /// Plane numbering shared by planes_, want_ and fresh_: value v of side
    /// s (0 = x', 1 = x'') lives in plane 2*s + (1 - v), i.e. the ones of
    /// x', the zeros of x', the ones of x'', the zeros of x''.
    [[nodiscard]] static std::size_t plane(int side, int value) noexcept {
        return static_cast<std::size_t>(2 * side + 1 - value);
    }

    bool assign(int side, std::size_t idx, int value);
    /// assign() with the bound-time stopwatch around it while a trace is
    /// recording (branch-vs-bound attribution in CheckStats).
    bool timed_assign(int side, std::size_t idx, int value);
    /// Interval pruning of D_z against the current planes: false when the
    /// relation can no longer hold, else ORs any forced extreme into want_.
    bool bound_signal(stg::SignalId z);
    void undo_to(std::size_t mark);
    bool dfs(const PairPredicate& accept, std::size_t depth);

    const CodingProblem* problem_;
    SearchOptions opts_;
    CodeRelation relation_ = CodeRelation::Equal;
    bool conflict_free_mode_ = false;
    bool cancelled_ = false;
    std::size_t nw_ = 0;  ///< words per plane, ceil(q / 64)

    // Mutable search state, fully re-initialised at the top of every
    // solve().  Four bit planes of nw_ words each (see plane()); a bit set
    // in neither plane of a side is unassigned.  The trail records every
    // overwritten plane word as (word index, old value).
    struct TrailEntry {
        std::size_t index;
        Word old;
    };
    std::vector<Word> planes_;
    std::vector<Word> want_, fresh_;  ///< per-round scratch, plane layout
    std::vector<Word> below_;         ///< dense indices < current first_diff
    std::vector<TrailEntry> trail_;
    std::vector<stg::SignalId> touched_;
    BitVec touched_mask_;             ///< over signals, mirrors touched_
    BitVec leaf_[2];                  ///< ones planes copied out at a leaf
    stg::CheckStats stats_;
    std::uint64_t bound_ns_ = 0;  ///< time inside assign() while tracing
    // Prune tallies, published to the compat.* counters once per solve.
    std::uint64_t signal_prunes_ = 0;   ///< interval infeasibility proofs
    std::uint64_t closure_prunes_ = 0;  ///< Theorem 1 forcing clashes
    SearchOutcome outcome_;
};

}  // namespace stgcc::core
