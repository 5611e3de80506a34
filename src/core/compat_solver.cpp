#include "core/compat_solver.hpp"

#include <climits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

CompatSolver::CompatSolver(const CodingProblem& problem, SearchOptions opts)
    : problem_(&problem), opts_(opts) {}

bool CompatSolver::signal_feasible(stg::SignalId z) const {
    const SignalState& s = ws_.signals[z];
    const int min_sum = s.fixed - s.neg_slack;
    const int max_sum = s.fixed + s.pos_slack;
    switch (relation_) {
        case CodeRelation::Equal:
            return min_sum <= 0 && max_sum >= 0;
        case CodeRelation::LessEq:
            return min_sum <= 0;
        case CodeRelation::GreaterEq:
            return max_sum >= 0;
    }
    return true;
}

bool CompatSolver::force_extreme(stg::SignalId z, bool maximum) {
    // To satisfy the relation, D_z must take its extreme value: every
    // unassigned variable of z is forced (max: coef>0 -> 1, coef<0 -> 0;
    // min: the opposite).
    for (const VarRef& v : problem_->vars_of_signal()[z]) {
        if (ws_.val[v.side][v.idx] != kUnassigned) continue;
        const int coef = coefficient(v.side, v.idx);
        const std::int8_t forced =
            static_cast<std::int8_t>(maximum == (coef > 0) ? 1 : 0);
        ws_.pending.emplace_back(v, forced);
    }
    return true;
}

bool CompatSolver::assign(int side, std::size_t idx, int value) {
    ws_.pending.clear();
    ws_.pending.emplace_back(VarRef{static_cast<std::uint8_t>(side),
                                    static_cast<std::uint32_t>(idx)},
                             static_cast<std::int8_t>(value));
    while (!ws_.pending.empty()) {
        const auto [v, val] = ws_.pending.back();
        ws_.pending.pop_back();
        const std::int8_t cur = ws_.val[v.side][v.idx];
        if (cur != kUnassigned) {
            if (cur != val) {
                // Closure contradiction (Theorem 1 forcing clash).
                if (obs::enabled()) obs::counter("compat.closure_prunes").add();
                return false;
            }
            continue;
        }
        ws_.val[v.side][v.idx] = val;
        ws_.trail.push_back(v);
        ++stats_.propagations;

        // Per-signal accounting and interval pruning.
        const stg::SignalId z = problem_->signal(v.idx);
        SignalState& s = ws_.signals[z];
        const int coef = coefficient(v.side, v.idx);
        if (coef > 0)
            --s.pos_slack;
        else
            --s.neg_slack;
        if (val == 1) s.fixed += coef;
        if (!signal_feasible(z)) {
            // An interval infeasibility proof: the relation on D_z can no
            // longer be satisfied, pruning the whole subtree.
            if (obs::enabled()) obs::counter("compat.signal_prunes").add();
            return false;
        }

        // Unit-style forcing when the relation pins D_z to an extreme.
        switch (relation_) {
            case CodeRelation::Equal:
                if (s.fixed + s.pos_slack == 0) force_extreme(z, /*maximum=*/true);
                if (s.fixed - s.neg_slack == 0) force_extreme(z, /*maximum=*/false);
                break;
            case CodeRelation::LessEq:
                if (s.fixed - s.neg_slack == 0) force_extreme(z, /*maximum=*/false);
                break;
            case CodeRelation::GreaterEq:
                if (s.fixed + s.pos_slack == 0) force_extreme(z, /*maximum=*/true);
                break;
        }

        // Theorem 1 closure (MCC): x(e)=1 forces predecessors to 1 and
        // conflicters to 0; x(e)=0 forces successors to 0.
        const std::uint8_t side8 = v.side;
        if (val == 1) {
            problem_->preds(v.idx).for_each([&](std::size_t f) {
                ws_.pending.emplace_back(
                    VarRef{side8, static_cast<std::uint32_t>(f)}, std::int8_t{1});
            });
            problem_->conflicts(v.idx).for_each([&](std::size_t g) {
                ws_.pending.emplace_back(
                    VarRef{side8, static_cast<std::uint32_t>(g)}, std::int8_t{0});
            });
        } else {
            problem_->succs(v.idx).for_each([&](std::size_t g) {
                ws_.pending.emplace_back(
                    VarRef{side8, static_cast<std::uint32_t>(g)}, std::int8_t{0});
            });
        }

        // First-difference linking: below index d the two vectors are equal.
        if (v.idx < first_diff_)
            ws_.pending.emplace_back(
                VarRef{static_cast<std::uint8_t>(1 - v.side), v.idx}, val);

        // Section 7 optimisation: restrict to C' subset C'' (x'_e <= x''_e).
        if (conflict_free_mode_) {
            if (v.side == 0 && val == 1)
                ws_.pending.emplace_back(VarRef{1, v.idx}, std::int8_t{1});
            if (v.side == 1 && val == 0)
                ws_.pending.emplace_back(VarRef{0, v.idx}, std::int8_t{0});
        }
    }
    return true;
}

void CompatSolver::undo_to(std::size_t mark) {
    while (ws_.trail.size() > mark) {
        const VarRef v = ws_.trail.back();
        ws_.trail.pop_back();
        const std::int8_t val = ws_.val[v.side][v.idx];
        ws_.val[v.side][v.idx] = kUnassigned;
        SignalState& s = ws_.signals[problem_->signal(v.idx)];
        const int coef = coefficient(v.side, v.idx);
        if (coef > 0)
            ++s.pos_slack;
        else
            ++s.neg_slack;
        if (val == 1) s.fixed -= coef;
    }
}

BitVec CompatSolver::extract(int side) const {
    BitVec out(problem_->size());
    for (std::size_t i = 0; i < problem_->size(); ++i)
        if (ws_.val[side][i] == 1) out.set(i);
    return out;
}

bool CompatSolver::dfs(const PairPredicate& accept, std::size_t depth) {
    if (++stats_.search_nodes > opts_.max_nodes)
        throw ModelError("CompatSolver: node limit exceeded (" +
                         std::to_string(opts_.max_nodes) + ")");
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    if (obs::enabled()) {
        static obs::Histogram& h = obs::histogram("compat.depth");
        h.observe(depth);
    }
    // Cooperative cancellation: poll every kCancelPollMask+1 nodes, then
    // unwind the whole search (returning false never records a witness).
    if (opts_.cancel.cancellable() &&
        (stats_.search_nodes & kCancelPollMask) == 0 &&
        opts_.cancel.cancelled())
        cancelled_ = true;
    if (cancelled_) return false;

    // Select the branching variable.
    const std::size_t q = problem_->size();
    int side = -1;
    std::size_t idx = 0;
    if (opts_.heuristic == BranchHeuristic::ConstrainedSignal) {
        // Variable of the signal with the fewest unassigned slots (but at
        // least one); falls back to index order on ties.
        int best_slack = INT_MAX;
        for (std::size_t i = 0; i < q && best_slack > 1; ++i) {
            for (int s = 0; s < 2; ++s) {
                if (ws_.val[s][i] != kUnassigned) continue;
                const SignalState& st = ws_.signals[problem_->signal(i)];
                const int slack = st.pos_slack + st.neg_slack;
                if (slack < best_slack) {
                    best_slack = slack;
                    side = s;
                    idx = i;
                }
            }
        }
    } else {
        // First unassigned variable, x' before x'' at equal index.
        for (std::size_t i = 0; i < q; ++i) {
            if (ws_.val[0][i] == kUnassigned) {
                side = 0;
                idx = i;
                break;
            }
            if (ws_.val[1][i] == kUnassigned) {
                side = 1;
                idx = i;
                break;
            }
        }
    }
    if (side == -1) {
        ++stats_.leaves;
        BitVec ca = extract(0), cb = extract(1);
        if (accept(ca, cb)) {
            outcome_.found = true;
            outcome_.ca = std::move(ca);
            outcome_.cb = std::move(cb);
            return true;
        }
        return false;
    }

    const int first = opts_.first_branch_value;
    for (int k = 0; k < 2; ++k) {
        const int v = k == 0 ? first : 1 - first;
        const std::size_t mark = ws_.trail.size();
        if (timed_assign(side, idx, v) && dfs(accept, depth + 1)) return true;
        undo_to(mark);
    }
    return false;
}

bool CompatSolver::timed_assign(int side, std::size_t idx, int value) {
    // Branch-vs-bound attribution: time spent inside assign() (closure +
    // interval propagation) is the "bound" share of a solve; everything
    // else in dfs() is branching.  Only measured while observability is on
    // -- two clock reads per search node is too much for the disabled path.
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
    ws_.val[0].assign(q, kUnassigned);
    ws_.val[1].assign(q, kUnassigned);
    ws_.trail.clear();
    stats_ = stg::CheckStats{};
    outcome_ = SearchOutcome{};

    // Seed the per-signal interval state from the problem's shared template
    // (tier-1 artifact: computed once, copied per instance).
    const auto& slacks = problem_->initial_slacks();
    ws_.signals.assign(slacks.size(), SignalState{});
    for (std::size_t z = 0; z < slacks.size(); ++z) {
        ws_.signals[z].pos_slack = slacks[z].pos;
        ws_.signals[z].neg_slack = slacks[z].neg;
    }
    bound_ns_ = 0;

    // Outer loop over the first index d where the two vectors differ.
    cancelled_ = false;
    for (std::size_t d = 0; d < q && !outcome_.found && !cancelled_; ++d) {
        first_diff_ = d;
        const std::size_t mark = ws_.trail.size();
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
