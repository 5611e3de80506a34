// stgcc -- the paper's verification algorithm (sections 3-5 and 7).
//
// Searches for a pair of configurations (C', C'') of the prefix whose Parikh
// vectors x', x'' in {0,1}^q, one variable per prefix event (q = |E|),
// satisfy
//   * a per-signal linear relation on the code difference
//     D_z = sum_e delta(e) (x'_e - x''_e)   (=, <= or >= 0),
//   * x'(e) = x''(e) = 0 for cut-off events (eq. 3: written into both
//     sides' zero planes before the search starts),
//   * a caller-supplied non-linear separating predicate evaluated at leaves
//     (markings differ / Out sets differ / Nxt comparison).
//
// Instead of feeding the constraints to a standard solver, the search only
// ever visits Unf-compatible vectors (Theorem 1): assigning x(e)=1 forces
// its causal predecessors to 1 and its conflict set to 0; assigning x(e)=0
// forces its causal successors to 0 (the minimal compatible closure, MCC).
// The closure ORs the prefix's own relation rows.
// Per-signal interval reasoning on D_z prunes and forces assignments.
//
// Distinct pairs are enumerated exactly once via a first-difference scheme:
// the outer loop fixes the first event d where the vectors differ
// (x'_d = 0 < x''_d = 1, with x'_j = x''_j linked for j < d; d skips the
// cut-offs, which are 0 on both sides), which both
// removes the C' = C'' diagonal and halves the symmetric search space --
// this realises the paper's "M' <lex M''" separating constraint at the
// level of Parikh vectors.  The subtrees of distinct d share no pair, so
// solve() on a pooled executor hands them out in ascending d through
// sched::find_first, one solver per subtree; the lowest-d hit is the one
// the serial loop finds, and the stats summed over the subtrees up to it
// are the serial run's.
//
// Inside a first-difference subtree the search branches on the highest
// event still open on either side (x' before x'', value 0 first).  Events
// are numbered in the adequate order, so x(e) = 1 on the highest open
// event fixes the largest local configuration and its conflict set in one
// decision.  The leaves of an exhaustive search are the solutions, whatever
// the order; the number of nodes is what the order decides.
//
// A caller may pass a side test to the serial solve().  At every inner node
// where one side has no open variable left, that side is final in every
// leaf below, so the solver hands its view to the side test; false prunes
// the node as if none of its leaves were accepted.  A true answer is
// reused down the path until the next leaf, the only place the answer can
// change.  Normalcy passes one that asks whether the finished side's Nxt
// can still falsify a flag that is open; USC and CSC pass none
// (docs/ALGORITHMS.md, section 4).
//
// When the STG is dynamically conflict-free, the section 7 optimisation
// restricts the search to set-ordered pairs C' subset C'' via the extra
// propagation x'_e <= x''_e (Proposition 1).
//
// Next to its bit planes the solver carries, in the same word array, what
// the bounds and the leaves read: per side the marked place set and the
// code of the configuration's committed 1-bits, and per signal the interval
// [min D_z, max D_z] over the unassigned variables.  All three move with
// each committed bit, so a bound is a read and a leaf hands the predicate
// ready views.  The array is one level of a stack with one level per open
// 0-branch: a 0-branch assigns on a copy of its node's level one up, and the
// 1-branch, the node's last, assigns on the node's level itself, so
// backtracking restores nothing (docs/ALGORITHMS.md, section 4).  The stack
// belongs to the thread and is reused by every solve it runs; one past
// 64 KiB is released when its solve ends.
//
// The kernel (closure rounds, carry, bounds, branching and the
// first-difference loop) is one source compiled per word width.  When the
// prefix fits one or two words per bit plane and one word per place set and
// per code (|E| <= 128, |P| <= 64, |Z| <= 64: every shipped model), solve()
// runs an instantiation whose word loops unroll and whose state offsets are
// constants; anything larger runs the instantiation that reads the widths
// at run time.  The choice is made once per solve from the problem, and
// every instantiation grows the same tree.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/coding_problem.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "stg/results.hpp"

namespace stgcc::obs {
class Span;
}

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

/// One side of a candidate pair at a leaf, as views into the solver's state
/// (valid only during the predicate call).
struct LeafView {
    BitSpan config;  ///< the configuration as an event set, |E| bits
    BitSpan places;  ///< marked places of the marking it reaches, |P| bits
    BitSpan code;    ///< Code of that marking, one bit per signal
};

/// Leaf predicate: given the two sides, decide whether they constitute the
/// sought conflict.  Returning true stops the search; returning false
/// continues enumeration.
using PairPredicate = std::function<bool(const LeafView& a, const LeafView& b)>;

/// Side test: given a side (0 = x', 1 = x'') that has no open variable left
/// at an inner search node, decide whether some leaf below could still be
/// accepted.  Returning false skips the node's subtree; it must do so only
/// where the predicate would reject every leaf below, so the accepted
/// leaves, their order and the outcome stay those of the search without it.
/// Its answer on one view may change only when a leaf has been visited: a
/// true answer holds below the node until the next leaf.
using SideTest = std::function<bool(int side, const LeafView& view)>;

struct SearchOutcome {
    bool found = false;
    bool cancelled = false;  ///< search stopped by SearchOptions::cancel
    BitVec ca, cb;           ///< configurations (event sets) when found
    stg::CheckStats stats;
};

class CompatSolver {
public:
    explicit CompatSolver(const CodingProblem& problem, SearchOptions opts = {});

    /// Run the search.  `accept` is consulted at every candidate pair that
    /// satisfies all linear constraints, and `side_test`, when given, at
    /// every inner node with a finished side; neither may start another
    /// solve on the same thread, which would share this one's search
    /// levels.
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      const PairPredicate& accept,
                                      const SideTest& side_test = {});

    /// The same search with its first-difference subtrees handed out in
    /// ascending d through sched::find_first on `ex`, so `accept` must be
    /// safe to call concurrently.  The witness is the lowest-d hit and the
    /// stats are summed over the subtrees up to it (all of them when none
    /// hits), so both equal the serial run's at any jobs value; the outcome
    /// reads cancelled when a subtree that counts was cut by opts.cancel.
    /// A serial executor runs solve(relation, accept).
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      const PairPredicate& accept,
                                      sched::Executor& ex);

private:
    using Word = BitSpan::Word;
    static constexpr std::size_t kWordBits = BitSpan::kWordBits;

    /// Plane numbering shared by state_, want_ and fresh_: value v of side
    /// s (0 = x', 1 = x'') lives in plane 2*s + (1 - v), i.e. the ones of
    /// x', the zeros of x', the ones of x'', the zeros of x''.
    [[nodiscard]] static std::size_t plane(int side, int value) noexcept {
        return static_cast<std::size_t>(2 * side + 1 - value);
    }

    /// An interval [lo, hi] of D_z packed in one word: lo + kBias in the
    /// low half, hi + kBias in the high half.  |D_z| <= q < kBias, so
    /// neither half leaves [0, 2^32) and one word add moves both.
    static constexpr std::int64_t kBias = std::int64_t{1} << 31;
    [[nodiscard]] static Word pack(std::int64_t lo, std::int64_t hi) noexcept {
        return (static_cast<Word>(hi + kBias) << 32) | static_cast<Word>(lo + kBias);
    }

    // The kernel is templated on its word width: NW words per bit plane
    // and one word per place set and per code, or, for NW = 0, the widths
    // solve() read from the problem (nw_, npw_, ncw_).
    template <std::size_t NW>
    struct Widths;

    /// Reset the search state for `relation` and run the first-difference
    /// subtrees d in [first, last), the indices below `first` linked equal.
    void run(CodeRelation relation, const PairPredicate& accept,
             const SideTest& side_test, std::size_t first, std::size_t last);
    /// The first-difference loop: one dfs per first differing index d in
    /// [first, last).
    template <std::size_t NW>
    void search(const PairPredicate& accept, std::size_t first, std::size_t last);
    /// Record the finished search on its compat.solve span and in the
    /// compat.* counters: once per check, however it was split.
    void publish(obs::Span& span) const;
    template <std::size_t NW>
    bool assign(int side, std::size_t idx, int value);
    /// assign() with the bound-time stopwatch around it while a trace is
    /// recording (branch-vs-bound attribution in CheckStats).
    template <std::size_t NW>
    bool timed_assign(int side, std::size_t idx, int value);
    /// Interval pruning of D_z with its stored interval: false when the
    /// relation can no longer hold, else ORs any forced extreme into want_.
    template <std::size_t NW>
    bool bound_signal(stg::SignalId z);
    /// Account the fresh bits of a committed round: move the interval of
    /// their signals, and the place set and code of each side by its fresh
    /// 1-bits; marks the touched signals.  Returns the number of bits.
    template <std::size_t NW>
    std::size_t carry_fresh();
    /// Copy level `level` into level + 1, growing the level stack when it
    /// is that deep for the first time, and make the copy current.
    void descend(std::size_t level);
    /// Make level `level` current again.
    void resume(std::size_t level) noexcept {
        state_ = levels_->data() + level * level_words_;
    }
    /// One search node on the current level, `level`, at depth `depth`.
    /// `reachable_at` is the leaf count at which the side test last
    /// answered true on this path, or kNotAsked.
    template <std::size_t NW>
    bool dfs(const PairPredicate& accept, std::size_t level, std::size_t depth,
             std::size_t reachable_at);
    static constexpr std::size_t kNotAsked = ~std::size_t{0};

    const CodingProblem* problem_;
    SearchOptions opts_;
    CodeRelation relation_ = CodeRelation::Equal;
    bool conflict_free_mode_ = false;
    bool cancelled_ = false;
    std::size_t nw_ = 0;   ///< words per plane, ceil(|E| / 64)
    std::size_t npw_ = 0;  ///< words per place set, ceil(|P| / 64)
    std::size_t ncw_ = 0;  ///< words per code, ceil(|Z| / 64)

    // Mutable search state, fully re-initialised at the top of every
    // solve().  A level of the search state holds, in order: four bit
    // planes of nw_ words each (see plane()), where a bit set in neither
    // plane of a side is unassigned; the place set of each side (npw_
    // words each); the code of each side (ncw_ words each); one packed
    // interval per signal.  Level 0 is the state before the first
    // difference; the levels live back to back in this thread's level
    // stack, levels_, and state_ points at the current one.
    std::vector<Word>* levels_ = nullptr;
    std::size_t level_words_ = 0;     ///< words per level
    Word* state_ = nullptr;
    std::vector<Word> want_, fresh_;  ///< per-round scratch, plane layout
    std::vector<Word> below_;         ///< events < current first difference
    std::vector<Word> touched_;       ///< signals with a fresh variable, ncw_ words
    stg::CheckStats stats_;
    std::uint64_t bound_ns_ = 0;  ///< time inside assign() while tracing
    // Prune tallies, published to the compat.* counters once per solve.
    std::uint64_t signal_prunes_ = 0;   ///< interval infeasibility proofs
    std::uint64_t closure_prunes_ = 0;  ///< Theorem 1 forcing clashes
    std::uint64_t side_prunes_ = 0;     ///< subtrees the side test skipped
    const SideTest* side_test_ = nullptr;  ///< null when the caller gave none
    SearchOutcome outcome_;
};

}  // namespace stgcc::core
