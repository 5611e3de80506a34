// stgcc -- generic branch-and-bound feasibility solver for bounded ILPs.
//
// A deliberately structure-agnostic solver: DFS over variable assignments
// with interval (bounds-consistency) propagation on the linear constraints
// and nothing else.  It stands in for the off-the-shelf solvers the paper
// dismisses ("they need too much time even for STGs of moderate size") and
// is benchmarked against the partial-order-aware CompatSolver in
// bench_ablation.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ilp/model.hpp"

namespace stgcc::ilp {

struct SolveStats {
    std::size_t nodes = 0;        ///< branching decisions
    std::size_t leaves = 0;       ///< full assignments reaching the callback
    std::size_t propagations = 0; ///< bound-tightening steps
    bool aborted = false;         ///< node limit hit before finishing
};

struct SolveOptions {
    std::size_t max_nodes = 50'000'000;
};

/// Called on every feasible full assignment; return true to accept it and
/// stop the search, false to reject and continue enumerating.
using LeafCallback = std::function<bool(const std::vector<int>&)>;

class BBSolver {
public:
    struct TrailEntry {
        VarId var;
        int old_lo, old_hi;
    };

    explicit BBSolver(const Model& model, SolveOptions opts = {})
        : model_(&model), opts_(opts) {}

    /// Search for a feasible assignment accepted by `leaf`.  Returns the
    /// accepted assignment, or nullopt when none exists (or the node limit
    /// was hit; see stats().aborted).
    [[nodiscard]] std::optional<std::vector<int>> solve(const LeafCallback& leaf);

    [[nodiscard]] const SolveStats& stats() const noexcept { return stats_; }

private:
    bool tighten(VarId v, int lo, int hi);
    bool propagate(std::size_t first_dirty_constraint);
    bool propagate_constraint(const Constraint& c);
    bool dfs(const LeafCallback& leaf, bool& accepted, std::vector<int>& out);
    void undo_to(std::size_t mark);

    const Model* model_;
    SolveOptions opts_;
    SolveStats stats_;
    /// Mutable search state, fully re-initialised at the top of solve().
    struct Workspace {
        std::vector<int> lo, hi;
        std::vector<TrailEntry> trail;
        std::vector<std::uint32_t> dirty;
        std::vector<char> in_dirty;
    } ws_;
};

}  // namespace stgcc::ilp
