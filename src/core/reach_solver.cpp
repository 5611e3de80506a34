#include "core/reach_solver.hpp"

#include "obs/trace.hpp"

namespace stgcc::core {

ReachSolver::ReachSolver(const CodingProblem& problem, SearchOptions opts)
    : problem_(&problem), opts_(std::move(opts)) {
    constraints_of_var_.resize(problem.size());
}

void ReachSolver::add_constraint(const MarkingExpr& expr, int lo, int hi) {
    STGCC_REQUIRE(lo != kNoBoundRs || hi != kNoBoundRs);
    ConstraintState c;
    c.terms = expr.terms;
    c.lo = lo;
    c.hi = hi;
    c.fixed = expr.constant;
    for (const LinearTerm& t : c.terms) {
        STGCC_REQUIRE(t.var < problem_->size());
        if (t.coef > 0)
            c.pos_slack += t.coef;
        else
            c.neg_slack += -t.coef;
        constraints_of_var_[t.var].push_back(
            static_cast<std::uint32_t>(constraints_.size()));
    }
    constraints_.push_back(std::move(c));
}

bool ReachSolver::constraint_feasible(const ConstraintState& c) const {
    const int min_sum = c.fixed - c.neg_slack;
    const int max_sum = c.fixed + c.pos_slack;
    if (c.lo != kNoBoundRs && max_sum < c.lo) return false;
    if (c.hi != kNoBoundRs && min_sum > c.hi) return false;
    return true;
}

void ReachSolver::force_extreme(const ConstraintState& c, bool maximum) {
    for (const LinearTerm& t : c.terms) {
        if (val_[t.var] != kUnassigned) continue;
        const std::int8_t forced =
            static_cast<std::int8_t>(maximum == (t.coef > 0) ? 1 : 0);
        pending_.emplace_back(t.var, forced);
    }
}

bool ReachSolver::assign(std::size_t idx, int value) {
    pending_.clear();
    pending_.emplace_back(static_cast<std::uint32_t>(idx),
                          static_cast<std::int8_t>(value));
    while (!pending_.empty()) {
        const auto [v, val] = pending_.back();
        pending_.pop_back();
        const std::int8_t cur = val_[v];
        if (cur != kUnassigned) {
            if (cur != val) return false;
            continue;
        }
        val_[v] = val;
        trail_.push_back(v);

        // Update every constraint mentioning v first (undo_to reverses all
        // of them, so the bookkeeping must be complete before any early
        // return), then prune and force.
        for (std::uint32_t ci : constraints_of_var_[v]) {
            ConstraintState& c = constraints_[ci];
            int coef = 0;
            for (const LinearTerm& t : c.terms)
                if (t.var == v) coef = t.coef;
            if (coef > 0)
                c.pos_slack -= coef;
            else
                c.neg_slack -= -coef;
            if (val == 1) c.fixed += coef;
        }
        for (std::uint32_t ci : constraints_of_var_[v]) {
            const ConstraintState& c = constraints_[ci];
            if (!constraint_feasible(c)) return false;
            if (c.lo != kNoBoundRs && c.fixed + c.pos_slack == c.lo)
                force_extreme(c, /*maximum=*/true);
            if (c.hi != kNoBoundRs && c.fixed - c.neg_slack == c.hi)
                force_extreme(c, /*maximum=*/false);
        }

        // Theorem 1 closure over the prefix rows.  [v] and the successor
        // row hold v itself, and the cut-offs a conflict or successor row
        // holds are already 0: those entries pop as no-ops.
        const unf::Prefix& prefix = problem_->prefix();
        if (val == 1) {
            prefix.local_config(v).for_each([&](std::size_t f) {
                pending_.emplace_back(static_cast<std::uint32_t>(f),
                                      std::int8_t{1});
            });
            prefix.conflicts(v).for_each([&](std::size_t g) {
                pending_.emplace_back(static_cast<std::uint32_t>(g),
                                      std::int8_t{0});
            });
        } else {
            prefix.successors(v).for_each([&](std::size_t g) {
                pending_.emplace_back(static_cast<std::uint32_t>(g),
                                      std::int8_t{0});
            });
        }
    }
    return true;
}

void ReachSolver::undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
        const std::uint32_t v = trail_.back();
        trail_.pop_back();
        const std::int8_t val = val_[v];
        val_[v] = kUnassigned;
        for (std::uint32_t ci : constraints_of_var_[v]) {
            ConstraintState& c = constraints_[ci];
            int coef = 0;
            for (const LinearTerm& t : c.terms)
                if (t.var == v) coef = t.coef;
            if (coef > 0)
                c.pos_slack += coef;
            else
                c.neg_slack += -coef;
            if (val == 1) c.fixed -= coef;
        }
    }
}

bool ReachSolver::dfs(const ConfigPredicate& accept) {
    if (++stats_.search_nodes > opts_.max_nodes)
        throw ModelError("ReachSolver: node limit exceeded");
    // Cooperative cancellation, polled like CompatSolver::dfs; unwinding
    // with false records no witness.
    if (opts_.cancel.cancellable() &&
        (stats_.search_nodes & kCancelPollMask) == 0 &&
        opts_.cancel.cancelled())
        cancelled_ = true;
    if (cancelled_) return false;
    std::size_t idx = problem_->size();
    for (std::size_t i = 0; i < problem_->size(); ++i)
        if (val_[i] == kUnassigned) {
            idx = i;
            break;
        }
    if (idx == problem_->size()) {
        ++stats_.leaves;
        BitVec config(problem_->size());
        for (std::size_t i = 0; i < problem_->size(); ++i)
            if (val_[i] == 1) config.set(i);
        if (accept(config)) {
            outcome_.found = true;
            outcome_.config = std::move(config);
            return true;
        }
        return false;
    }
    for (int v = 1; v >= 0; --v) {
        const std::size_t mark = trail_.size();
        if (assign(idx, v) && dfs(accept)) return true;
        undo_to(mark);
    }
    return false;
}

ReachSolver::Outcome ReachSolver::solve(const ConfigPredicate& accept) {
    obs::Span span("reach.solve");
    val_.assign(problem_->size(), kUnassigned);
    // Eq. 3: cut-off variables are 0 (no constraint mentions them).
    problem_->cutoffs().for_each([&](std::size_t e) { val_[e] = 0; });
    trail_.clear();
    stats_ = stg::CheckStats{};
    outcome_ = Outcome{};
    // A token cancelled before the solve visits no node at all.
    cancelled_ = opts_.cancel.cancelled();
    // Initial feasibility of all constraints on the empty assignment.
    bool feasible = true;
    for (const auto& c : constraints_)
        if (!constraint_feasible(c)) feasible = false;
    if (feasible && !cancelled_) dfs(accept);
    outcome_.cancelled = cancelled_;
    outcome_.stats = stats_;
    outcome_.stats.seconds = span.seconds();
    return outcome_;
}

}  // namespace stgcc::core
