#include "core/compat_solver.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

CompatSolver::CompatSolver(const CodingProblem& problem, SearchOptions opts)
    : problem_(&problem), opts_(opts) {}

bool CompatSolver::bound_signal(stg::SignalId z) {
    // D_z = sum_e delta(e) (x'_e - x''_e): rising events weigh +1 on x' and
    // -1 on x'', falling events the opposite.  Its bounds over the
    // unassigned variables come straight from popcounts of the planes.
    const std::size_t nw = nw_;
    const Word* r = problem_->rising(z).words();
    const Word* f = problem_->falling(z).words();
    const Word* o0 = planes_.data() + plane(0, 1) * nw;
    const Word* z0 = planes_.data() + plane(0, 0) * nw;
    const Word* o1 = planes_.data() + plane(1, 1) * nw;
    const Word* z1 = planes_.data() + plane(1, 0) * nw;
    int max_sum = 0, min_sum = 0;
    for (std::size_t w = 0; w < nw; ++w) {
        if ((r[w] | f[w]) == 0) continue;
        max_sum += std::popcount(~z0[w] & r[w]) + std::popcount(~z1[w] & f[w]) -
                   std::popcount(o0[w] & f[w]) - std::popcount(o1[w] & r[w]);
        min_sum += std::popcount(o0[w] & r[w]) + std::popcount(o1[w] & f[w]) -
                   std::popcount(~z0[w] & f[w]) - std::popcount(~z1[w] & r[w]);
    }
    bool feasible = true;
    switch (relation_) {
        case CodeRelation::Equal: feasible = min_sum <= 0 && max_sum >= 0; break;
        case CodeRelation::LessEq: feasible = min_sum <= 0; break;
        case CodeRelation::GreaterEq: feasible = max_sum >= 0; break;
    }
    if (!feasible) {
        // An interval infeasibility proof: the relation on D_z can no
        // longer be satisfied, pruning the whole subtree.
        ++signal_prunes_;
        return false;
    }

    // Unit-style forcing when the relation pins D_z to an extreme: every
    // unassigned variable of z takes the value that keeps D_z there (max:
    // coefficient +1 -> 1, -1 -> 0; min: the opposite).
    const bool force_max = max_sum == 0 && relation_ != CodeRelation::LessEq;
    const bool force_min = min_sum == 0 && relation_ != CodeRelation::GreaterEq;
    if (!force_max && !force_min) return true;
    const int up = force_max ? 1 : 0;  // value of the +1 variables
    Word* rise0 = want_.data() + plane(0, up) * nw;
    Word* fall0 = want_.data() + plane(0, 1 - up) * nw;
    Word* fall1 = want_.data() + plane(1, up) * nw;
    Word* rise1 = want_.data() + plane(1, 1 - up) * nw;
    for (std::size_t w = 0; w < nw; ++w) {
        const Word free0 = ~(o0[w] | z0[w]);
        const Word free1 = ~(o1[w] | z1[w]);
        rise0[w] |= r[w] & free0;
        fall0[w] |= f[w] & free0;
        fall1[w] |= f[w] & free1;
        rise1[w] |= r[w] & free1;
    }
    return true;
}

bool CompatSolver::assign(int side, std::size_t idx, int value) {
    // Propagation in rounds over whole words.  A round closes the newly
    // wanted bits under Theorem 1, checks the result against the planes,
    // commits what is fresh, and derives the next round's wants from the
    // fresh bits: the first-difference and section 7 links and the
    // interval forcing of every touched signal.  Every rule is monotone, so
    // the rounds reach the same fixpoint (or the same failure) as any
    // one-variable-at-a-time order would.
    //
    // The scratch words are addressed through locals: they are
    // std::uint64_t like the size fields, so member reads inside the loops
    // would be reloaded after every store.
    const std::size_t nw = nw_;
    const std::size_t q = problem_->size();
    Word* const planes = planes_.data();
    Word* const want = want_.data();
    Word* const fresh = fresh_.data();
    const Word* const below = below_.data();
    std::fill(want, want + 4 * nw, Word{0});
    want[plane(side, value) * nw + idx / kWordBits] |= Word{1} << (idx % kWordBits);
    while (true) {
        // Theorem 1 closure (MCC): x(e)=1 forces predecessors to 1 and
        // conflicters to 0; x(e)=0 forces successors to 0.  The rows are
        // transitively closed and conflict is inherited by successors, so
        // one OR of the rows of the newly wanted bits closes the round: the
        // bits a row adds need no rows of their own.
        for (std::size_t i = 0; i < 4 * nw; ++i) fresh[i] = want[i] & ~planes[i];
        for (int s = 0; s < 2; ++s) {
            Word* w1 = want + plane(s, 1) * nw;
            Word* w0 = want + plane(s, 0) * nw;
            BitSpan(fresh + plane(s, 1) * nw, q).for_each([&](std::size_t e) {
                const Word* pred = problem_->preds(e).words();
                const Word* conf = problem_->conflicts(e).words();
                for (std::size_t w = 0; w < nw; ++w) {
                    w1[w] |= pred[w];
                    w0[w] |= conf[w];
                }
            });
            BitSpan(fresh + plane(s, 0) * nw, q).for_each([&](std::size_t e) {
                const Word* succ = problem_->succs(e).words();
                for (std::size_t w = 0; w < nw; ++w) w0[w] |= succ[w];
            });
        }

        Word any = 0;
        for (int s = 0; s < 2; ++s) {
            const Word* w1 = want + plane(s, 1) * nw;
            const Word* w0 = want + plane(s, 0) * nw;
            const Word* ones = planes + plane(s, 1) * nw;
            const Word* zeros = planes + plane(s, 0) * nw;
            Word* f1 = fresh + plane(s, 1) * nw;
            Word* f0 = fresh + plane(s, 0) * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                if ((w1[w] & (zeros[w] | w0[w])) | (w0[w] & ones[w])) {
                    // Closure contradiction (Theorem 1 forcing clash).
                    ++closure_prunes_;
                    return false;
                }
                f1[w] = w1[w] & ~ones[w];
                f0[w] = w0[w] & ~zeros[w];
                any |= f1[w] | f0[w];
            }
        }
        if (any == 0) return true;

        // Commit the fresh bits, recording each overwritten word.
        std::size_t committed = 0;
        for (std::size_t i = 0; i < 4 * nw; ++i) {
            want[i] = 0;
            if (fresh[i] == 0) continue;
            trail_.push_back(TrailEntry{i, planes[i]});
            planes[i] |= fresh[i];
            committed += static_cast<std::size_t>(std::popcount(fresh[i]));
        }
        stats_.propagations += committed;

        // First-difference linking: below index d the two vectors are equal.
        for (int s = 0; s < 2; ++s) {
            const Word* f1 = fresh + plane(s, 1) * nw;
            const Word* f0 = fresh + plane(s, 0) * nw;
            Word* o1 = want + plane(1 - s, 1) * nw;
            Word* o0 = want + plane(1 - s, 0) * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                o1[w] |= f1[w] & below[w];
                o0[w] |= f0[w] & below[w];
            }
        }
        // Section 7 optimisation: restrict to C' subset C'' (x'_e <= x''_e).
        if (conflict_free_mode_) {
            const Word* ones0 = fresh + plane(0, 1) * nw;
            const Word* zeros1 = fresh + plane(1, 0) * nw;
            Word* want_ones1 = want + plane(1, 1) * nw;
            Word* want_zeros0 = want + plane(0, 0) * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                want_ones1[w] |= ones0[w];
                want_zeros0[w] |= zeros1[w];
            }
        }

        // Per-signal accounting and interval pruning for every signal with
        // a freshly assigned variable.
        for (std::size_t w = 0; w < nw; ++w) {
            Word bits = fresh[w] | fresh[nw + w] | fresh[2 * nw + w] |
                        fresh[3 * nw + w];
            while (bits) {
                const std::size_t e =
                    w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                const stg::SignalId z = problem_->signal(e);
                if (touched_mask_.test(z)) continue;
                touched_mask_.set(z);
                touched_.push_back(z);
            }
        }
        bool feasible = true;
        for (const stg::SignalId z : touched_) {
            touched_mask_.reset(z);
            if (feasible) feasible = bound_signal(z);
        }
        touched_.clear();
        if (!feasible) return false;
    }
}

void CompatSolver::undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
        planes_[trail_.back().index] = trail_.back().old;
        trail_.pop_back();
    }
}

bool CompatSolver::dfs(const PairPredicate& accept, std::size_t depth) {
    if (++stats_.search_nodes > opts_.max_nodes)
        throw ModelError("CompatSolver: node limit exceeded (" +
                         std::to_string(opts_.max_nodes) + ")");
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    // Cooperative cancellation: poll every kCancelPollMask+1 nodes, then
    // unwind the whole search (returning false never records a witness).
    if (opts_.cancel.cancellable() &&
        (stats_.search_nodes & kCancelPollMask) == 0 &&
        opts_.cancel.cancelled())
        cancelled_ = true;
    if (cancelled_) return false;

    // Branch on the highest index not assigned on both sides, x' before x''
    // at equal index.  Dense indices follow the adequate order, so the
    // highest open event has the largest local configuration: x(e) = 1
    // fixes all of [e] and its conflict set in one step (Theorem 1).  Bits
    // at and above q in the last word are padding, never assigned.
    const std::size_t q = problem_->size();
    const Word* o0 = planes_.data() + plane(0, 1) * nw_;
    const Word* z0 = planes_.data() + plane(0, 0) * nw_;
    const Word* o1 = planes_.data() + plane(1, 1) * nw_;
    const Word* z1 = planes_.data() + plane(1, 0) * nw_;
    const Word tail = q % kWordBits ? (Word{1} << (q % kWordBits)) - 1 : ~Word{0};
    std::size_t idx = q;
    for (std::size_t w = nw_; w-- > 0;) {
        Word open = ~((o0[w] | z0[w]) & (o1[w] | z1[w]));
        if (w + 1 == nw_) open &= tail;
        if (open == 0) continue;
        idx = w * kWordBits + kWordBits - 1 -
              static_cast<std::size_t>(std::countl_zero(open));
        break;
    }
    if (idx >= q) {
        ++stats_.leaves;
        for (int s = 0; s < 2; ++s) {
            leaf_[s].clear();
            leaf_[s] |= BitSpan(planes_.data() + plane(s, 1) * nw_, q);
        }
        if (accept(leaf_[0], leaf_[1])) {
            outcome_.found = true;
            outcome_.ca = leaf_[0];
            outcome_.cb = leaf_[1];
            return true;
        }
        return false;
    }
    const Word bit = Word{1} << (idx % kWordBits);
    const std::size_t w = idx / kWordBits;
    const int side = ((o0[w] | z0[w]) & bit) ? 1 : 0;

    for (int v = 0; v < 2; ++v) {
        const std::size_t mark = trail_.size();
        if (timed_assign(side, idx, v) && dfs(accept, depth + 1)) return true;
        undo_to(mark);
    }
    return false;
}

bool CompatSolver::timed_assign(int side, std::size_t idx, int value) {
    // Branch-vs-bound attribution: time spent inside assign() (closure +
    // interval propagation) is the "bound" share of a solve; everything
    // else in dfs() is branching.  Only measured while a trace is recording
    // -- two clock reads per search node is too much for an untraced run.
    if (!obs::enabled()) return assign(side, idx, value);
    Stopwatch w;
    const bool ok = assign(side, idx, value);
    bound_ns_ += w.nanos();
    return ok;
}

namespace {

const char* relation_name(CodeRelation r) {
    switch (r) {
        case CodeRelation::Equal: return "equal";
        case CodeRelation::LessEq: return "less_eq";
        case CodeRelation::GreaterEq: return "greater_eq";
    }
    return "?";
}

}  // namespace

SearchOutcome CompatSolver::solve(CodeRelation relation,
                                  const PairPredicate& accept) {
    obs::Span span("compat.solve");
    span.attr("relation", relation_name(relation));
    relation_ = relation;
    conflict_free_mode_ = opts_.use_conflict_free_optimisation &&
                          problem_->dynamically_conflict_free();
    const std::size_t q = problem_->size();
    nw_ = (q + kWordBits - 1) / kWordBits;
    planes_.assign(4 * nw_, Word{0});
    want_.assign(4 * nw_, Word{0});
    fresh_.assign(4 * nw_, Word{0});
    below_.assign(nw_, Word{0});
    trail_.clear();
    touched_.clear();
    touched_mask_ = BitVec(problem_->stg().num_signals());
    leaf_[0] = leaf_[1] = BitVec(q);
    stats_ = stg::CheckStats{};
    outcome_ = SearchOutcome{};
    bound_ns_ = 0;
    signal_prunes_ = closure_prunes_ = 0;

    // Outer loop over the first index d where the two vectors differ.
    cancelled_ = false;
    for (std::size_t d = 0; d < q && !outcome_.found && !cancelled_; ++d) {
        // Dense indices below d are linked equal on both sides.
        if (d > 0)
            below_[(d - 1) / kWordBits] |= Word{1} << ((d - 1) % kWordBits);
        const std::size_t mark = trail_.size();
        if (timed_assign(0, d, 0) && timed_assign(1, d, 1))
            (void)dfs(accept, 0);
        undo_to(mark);
    }
    outcome_.cancelled = cancelled_;
    outcome_.stats = stats_;
    outcome_.stats.seconds = span.seconds();
    outcome_.stats.bound_seconds = static_cast<double>(bound_ns_) / 1e9;

    obs::counter("compat.solves").add();
    obs::counter("compat.nodes").add(stats_.search_nodes);
    obs::counter("compat.leaves").add(stats_.leaves);
    obs::counter("compat.signal_prunes").add(signal_prunes_);
    obs::counter("compat.closure_prunes").add(closure_prunes_);
    span.attr("vars", 2 * q);
    span.attr("conflict_free_mode", conflict_free_mode_);
    span.attr("nodes", stats_.search_nodes);
    span.attr("leaves", stats_.leaves);
    span.attr("propagations", stats_.propagations);
    span.attr("max_depth", stats_.max_depth);
    span.attr("bound_ns", bound_ns_);
    span.attr("found", outcome_.found);
    if (cancelled_) span.attr("cancelled", true);
    return outcome_;
}

}  // namespace stgcc::core
