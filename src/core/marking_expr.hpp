// stgcc -- section 5 of the paper: rendering properties of reachable
// markings as linear expressions over Unf-compatible vectors.
//
// For a place s of the original net and a configuration with Parikh vector
// x, the token count is
//   M(s) = sum_{b in h^-1(s)} ( Min(b) + x(producer(b)) - sum_{f in b*} x(f) )
// which is linear in x.  MarkingExpressions precomputes these per-place
// expressions over the prefix events, the variables of a CodingProblem's
// solvers; a cut-off event is pinned to 0 and has no term.  Any linear
// predicate P(M) becomes a linear predicate over x.
#pragma once

#include <vector>

#include "core/coding_problem.hpp"

namespace stgcc::core {

struct LinearTerm {
    std::uint32_t var;  ///< prefix event
    int coef;
};

/// A linear expression  constant + sum coef_i * x_i  over prefix events.
struct MarkingExpr {
    int constant = 0;
    std::vector<LinearTerm> terms;
};

class MarkingExpressions {
public:
    explicit MarkingExpressions(const CodingProblem& problem);

    /// Expression for the token count of original place s after executing a
    /// configuration.
    [[nodiscard]] const MarkingExpr& place(petri::PlaceId s) const {
        STGCC_REQUIRE(s < exprs_.size());
        return exprs_[s];
    }

    /// Sum of the expressions of several places (e.g. the preset of a
    /// transition for a deadlock constraint); terms on the same variable
    /// are merged.
    [[nodiscard]] MarkingExpr sum(const std::vector<petri::PlaceId>& places) const;

    /// Evaluate an expression on a configuration (for assertions).
    [[nodiscard]] static int evaluate(const MarkingExpr& expr, const BitVec& config);

private:
    std::vector<MarkingExpr> exprs_;
};

}  // namespace stgcc::core
